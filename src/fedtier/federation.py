"""The protocol engine: cascaded root -> cluster -> leaf optimization with
progressive freezing.

Each stage trains only its own tier while earlier tiers stay frozen. Server
tiers (root, cluster) aggregate client factor products Sum_i pi_i B_i A_i and
refactorize through a truncated SVD back to rank r. Stages stop on a relative
step-size criterion rho = ||D_new - D_prev||_F / (||D_prev||_F + eps) <= tau,
or on their round budget; a stage whose budget is 0 runs no round and keeps
its initial adapters, whose B is exactly 0. Leaf adapters never leave their
client and their budget is counted in local epochs.

All three stages run one loop over groups (all clients for the root, each
cluster's members, each client alone for its leaf). A group is its members
and one AdapterPath whose active slot holds the adapter being trained; the
penalty bases (the B factors of the tiers before the active one) and the
data-proportional weights are derived from that path and the members' train
sizes, never stored. The members of every still-running group form one
stack, packed once per set of running groups, and each round runs one local
update on it; `workers` > 1 splits that stack into contiguous chunks run on
a thread pool.

Determinism: the local-update kernel lays each client's rows out in fixed
blocks of batch_size rows and computes every (client, block) slice on its
own, so a client's bits do not depend on which clients share its stack or
chunk. Each client draws all of a stage's shuffles from its own stream, and
aggregation reduces in ascending member order, so results are identical for
any worker count on a given machine and BLAS build.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import BasisTracker, ClusterAssignment, cluster_clients, ema_update
from .datagen import ClientSplit, FederationData
from .errors import ConfigurationError, PreconditionError, check_field_types, check_seed
from .linalg import Matrix, frobenius_norm, one_blas_thread, truncated_svd
from .lora import (AdapterPath, LoraAdapter, Tier, compose_path, delta, init_adapter,
                   zero_adapter)
from .model import (ClientStack, EncodedData, HeadModel, SgdConfig, build_model, encode,
                    local_update, _stack_losses)
from .streams import stream


@dataclass
class FederationConfig:
    """Protocol hyperparameters; stage budgets must sum to total_budget."""

    n_clients: int
    rank: int = 2
    gamma_c: float = 1.0
    gamma_l: float = 1.0
    ema_decay: float = 0.9
    tau_rel: float = 1e-3
    eps: float = 1e-8
    t_root: int = 20
    t_cluster: int = 20
    t_leaf: int = 10
    total_budget: int = 50
    lr: float = 0.05
    local_epochs: int = 1
    batch_mode: str = "mini"
    batch_size: int = 32
    k_min: int = 2
    k_max: int = 10
    master_seed: int = 0
    hidden_dim: int = 32
    probe_steps: int = 20
    workers: int = 1

    def __post_init__(self):
        check_field_types(self)
        check_seed(master_seed=self.master_seed)
        for name in ("n_clients", "rank", "t_root", "local_epochs", "hidden_dim",
                     "probe_steps", "workers"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if not (0 <= self.gamma_c < math.inf and 0 <= self.gamma_l < math.inf):
            raise ConfigurationError("penalty weights must be finite and non-negative")
        if not 0.0 < self.ema_decay < 1.0:
            raise ConfigurationError("ema_decay must lie in (0, 1)")
        if not 0 < self.tau_rel < math.inf:
            raise ConfigurationError("tau_rel must be finite and positive")
        if not 0 < self.eps < math.inf:
            raise ConfigurationError("eps must be finite and positive")
        if min(self.t_cluster, self.t_leaf) < 0:
            raise ConfigurationError("stage budgets must be non-negative")
        if self.t_root + self.t_cluster + self.t_leaf != self.total_budget:
            raise ConfigurationError(
                f"stage budgets {self.t_root}+{self.t_cluster}+{self.t_leaf} "
                f"must sum to total_budget={self.total_budget}")
        self.sgd()   # SgdConfig checks lr, batch_mode and batch_size
        if not 2 <= self.k_min <= self.k_max:
            raise ConfigurationError("need 2 <= k_min <= k_max")
        if self.n_clients >= 3 and self.k_min > self.n_clients - 1:
            raise ConfigurationError(f"k_min must be at most n_clients - 1 = {self.n_clients - 1}")

    def sgd(self) -> SgdConfig:
        return SgdConfig(lr=self.lr, epochs=self.local_epochs,
                         batch_mode=self.batch_mode, batch_size=self.batch_size)


@dataclass
class ClientState:
    id: int
    data: ClientSplit
    cluster: int | None
    path: AdapterPath


@dataclass
class ServerState:
    root: LoraAdapter | None = None
    clusters: dict[int, LoraAdapter] = field(default_factory=dict)
    assignment: ClusterAssignment | None = None


@dataclass
class StageReport:
    stage: str
    rho: list[float]
    weighted_loss: list[float]
    rounds: int
    stop_reason: str
    cluster: int | None = None
    client: int | None = None


def weights_root(sizes) -> np.ndarray:
    """Data-proportional weights n_i / sum(n)."""
    sizes = np.asarray(sizes, dtype=np.float64)
    if np.any(sizes <= 0):
        raise PreconditionError("client sizes must be positive")
    return sizes / sizes.sum()


def weights_cluster(sizes, members) -> np.ndarray:
    """Data-proportional weights restricted to one cluster's members."""
    return weights_root([sizes[i] for i in members])


def _check_weights(adapters, weights):
    if len(adapters) != len(weights):
        raise ConfigurationError("one weight per adapter is required")
    if abs(float(np.sum(weights)) - 1.0) > 1e-9:
        raise ConfigurationError("aggregation weights must sum to 1")
    dims = {(ad.p, ad.q) for ad in adapters}
    if len(dims) != 1:
        raise ConfigurationError(f"adapters disagree on dimensions: {dims}")


def aggregate_product(adapters: list[LoraAdapter], weights) -> Matrix:
    """Product-space aggregate Sum_i pi_i B_i A_i (no cross terms)."""
    _check_weights(adapters, weights)
    out = np.zeros((adapters[0].p, adapters[0].q))
    for ad, w in zip(adapters, weights):
        out += w * (ad.b @ ad.a)
    return out


def aggregate_separate(adapters: list[LoraAdapter], weights) -> LoraAdapter:
    """Baseline averaging of B and A separately; exhibits cross terms."""
    _check_weights(adapters, weights)
    b = np.zeros_like(adapters[0].b)
    a = np.zeros_like(adapters[0].a)
    for ad, w in zip(adapters, weights):
        b += w * ad.b
        a += w * ad.a
    return LoraAdapter(b=b, a=a, rank=adapters[0].rank)


def refactor(delta_w: Matrix, r: int) -> LoraAdapter:
    """Truncated-SVD refactorization: B = U_r, A = Sigma_r V_r^T."""
    f = truncated_svd(delta_w, r)
    return LoraAdapter(b=f.u, a=f.singular_values[:, None] * f.vt, rank=r)


def stop_check(delta_prev: Matrix, delta_new: Matrix, tau_rel: float, eps: float):
    """Relative step size rho = ||new - prev||_F / (||prev||_F + eps); stop
    when rho falls at or below tau_rel."""
    rho = frobenius_norm(np.asarray(delta_new) - np.asarray(delta_prev)) / (
        frobenius_norm(delta_prev) + eps)
    return rho <= tau_rel, rho


def _encode_clients(model, data) -> list[EncodedData]:
    return [encode(model, c.train) for c in data.clients]


@dataclass
class _Group:
    """Clients that train one adapter together: every client in the root
    stage, one cluster's members in the cluster stage, one client in the
    leaf stage. The path holds the frozen tiers and, in the active slot, the
    adapter being trained."""

    members: list[int]
    path: AdapterPath
    cluster: int | None = None   # the StageReport's labels
    client: int | None = None
    rho: list[float] = field(default_factory=list)
    loss: list[float] = field(default_factory=list)
    stopped: bool = False
    prev_delta: Matrix | None = None   # what the next stop check compares against


def _stage_settings(config: FederationConfig, active: Tier):
    """(round budget, optimiser, penalty weights) of a stage: gamma_c, gamma_l pair
    with the active tier's earlier tiers in order; a leaf round is one local epoch."""
    opt = replace(config.sgd(), epochs=1) if active is Tier.LEAF else config.sgd()
    gammas = (config.gamma_c, config.gamma_l)[:len(active.earlier)]
    return getattr(config, f"t_{active.value}"), opt, gammas


def _absorb(config: FederationConfig, active: Tier, tracker: BasisTracker | None,
            members: list[int], local: list[LoraAdapter], weights: np.ndarray):
    """A group's new adapter and the delta its stop check compares. A leaf
    keeps its client's local adapter. A server group aggregates the products
    B_i A_i of its local adapters in member order and refactors the sum to
    rank r; `tracker`, when given, first receives every member's local basis."""
    if active is Tier.LEAF:
        return local[0], delta(local[0])
    if tracker is not None:
        for i, ad in zip(members, local):
            ema_update(tracker, i, ad.b)
    delta_new = aggregate_product(local, weights)
    return refactor(delta_new, config.rank), delta_new


def _until_stopped(config: FederationConfig, model: HeadModel, enc: list[EncodedData],
                   active: Tier, groups: list[_Group],
                   tracker: BasisTracker | None = None) -> list[StageReport]:
    """Advance the groups in lockstep for rounds t = 1..budget, training the
    active slot of each group's path.

    Everything else is derived from the groups: the penalty bases are the B
    factors of the path's tiers before the active one, and a group's
    aggregation and round-loss weights are weights_root over its members'
    train sizes. The members of every running group, in group order, form
    one ClientStack, packed once per set of running groups, and each round
    runs one local update on it; with config.workers > 1 the stack is split
    into at most that many contiguous chunks run on a thread pool.
    _absorb then gives the group's new adapter and the delta its stop check
    compares, the round loss is taken at compose_path(path, w0), and a
    group retires once stop_check passes on consecutive deltas or the
    budget runs out."""
    budget, opt, gammas = _stage_settings(config, active)
    weights = [weights_root([len(enc[i]) for i in g.members]) for g in groups]
    shuffles = {i: stream(config.master_seed, f"{active.value}_shuffle", i)
                for g in groups for i in g.members if opt.batch_mode == "mini"}
    for g in groups:
        g.prev_delta = delta(g.path.adapter(active))
    packed = []   # the running groups the stack below was packed for
    with ThreadPoolExecutor(config.workers) if config.workers > 1 else nullcontext() as pool:
        for t in range(1, budget + 1):
            running = [(g, w) for g, w in zip(groups, weights) if not g.stopped]
            if not running:
                break
            if len(running) != len(packed):   # groups only retire: a new count is a new set
                packed = running
                ids = [i for g, _ in running for i in g.members]
                ends = np.cumsum([len(g.members) for g, _ in running])
                spans = [slice(end - len(g.members), end) for (g, _), end in zip(running, ends)]
                stack = ClientStack([enc[i] for i in ids])
                parts = [slice(ix[0], ix[-1] + 1) for ix in
                         np.array_split(np.arange(len(ids)), min(config.workers, len(ids)))]
                # a single chunk is the stack itself, whose layout the round loss reuses
                chunks = [stack] if len(parts) == 1 else [stack[part] for part in parts]
                rngs = [shuffles.get(i) for i in ids]
            paths = [g.path for g, _ in running for _ in g.members]
            bases = [[path.adapter(tier).b for path in paths] for tier in active.earlier]

            def chunk(part, data):
                return local_update(model, paths[part], data, active,
                                    [entry[part] for entry in bases], gammas,
                                    opt=opt, rng=rngs[part])

            results = (map if pool is None else pool.map)(chunk, parts, chunks)
            local = [ad for part in results for ad in part]
            w_eff = []
            for (g, w), span in zip(running, spans):
                adapter, delta_new = _absorb(config, active, tracker, g.members,
                                             local[span], w)
                g.path = g.path.replace(active, adapter)
                g.stopped, rho = stop_check(g.prev_delta, delta_new, config.tau_rel, config.eps)
                g.rho.append(rho)
                g.prev_delta = delta_new
                w_eff += [compose_path(g.path, model.w0)] * len(g.members)
            losses = _stack_losses(np.stack(w_eff), stack)
            for (g, w), span in zip(running, spans):
                g.loss.append(float(sum(wi * x for wi, x in zip(w, losses[span]))))
    return [StageReport(stage=active.value, rho=g.rho, weighted_loss=g.loss,
                        rounds=len(g.rho), stop_reason="criterion" if g.stopped else "budget",
                        cluster=g.cluster, client=g.client)
            for g in groups]


def run_root_stage(config: FederationConfig, data: FederationData, model: HeadModel,
                   tracker: BasisTracker, enc: list[EncodedData] | None = None):
    """Train the global root adapter; feed every client's local basis into the
    EMA tracker each round. Returns the frozen root and the stage report."""
    enc = enc if enc is not None else _encode_clients(model, data)
    p, q = model.class_count, model.backbone.hidden_dim
    zero = zero_adapter(p, q, config.rank)
    root = init_adapter(p, q, config.rank, stream(config.master_seed, "root_init"))
    group = _Group(members=list(range(config.n_clients)),
                   path=AdapterPath(root=root, cluster=zero, leaf=zero))
    [report] = _until_stopped(config, model, enc, Tier.ROOT, [group], tracker)
    tracker.rounds = report.rounds
    return group.path.root, report


def run_cluster_stage(config: FederationConfig, data: FederationData, model: HeadModel,
                      assignment: ClusterAssignment, root_star: LoraAdapter,
                      enc: list[EncodedData] | None = None):
    """Train one adapter per cluster, each orthogonality-penalized against the
    frozen root; clusters run in lockstep and stop independently within
    t_cluster."""
    enc = enc if enc is not None else _encode_clients(model, data)
    p, q = model.class_count, model.backbone.hidden_dim
    zero = zero_adapter(p, q, config.rank)
    groups = []
    for j in assignment.cluster_ids:
        cluster = init_adapter(p, q, config.rank, stream(config.master_seed, "cluster_init", j))
        groups.append(_Group(members=assignment.members(j), cluster=j,
                             path=AdapterPath(root=root_star, cluster=cluster, leaf=zero)))
    reports = _until_stopped(config, model, enc, Tier.CLUSTER, groups)
    return {g.cluster: g.path.cluster for g in groups}, reports


def run_leaf_stage(config: FederationConfig, data: FederationData, model: HeadModel,
                   root_star: LoraAdapter, clusters: dict[int, LoraAdapter],
                   assignment: ClusterAssignment,
                   enc: list[EncodedData] | None = None):
    """Train each client's private leaf adapter; no aggregation ever happens.

    The leaf budget is counted in local epochs, with the same relative
    step-size stopping applied to the client's own leaf update.
    """
    enc = enc if enc is not None else _encode_clients(model, data)
    p, q = model.class_count, model.backbone.hidden_dim
    groups = []
    for i in range(config.n_clients):
        j = int(assignment.labels[i])
        leaf = init_adapter(p, q, config.rank, stream(config.master_seed, "leaf_init", i))
        groups.append(_Group(members=[i], cluster=j, client=i,
                             path=AdapterPath(root=root_star, cluster=clusters[j], leaf=leaf)))
    reports = _until_stopped(config, model, enc, Tier.LEAF, groups)
    return [g.path.leaf for g in groups], reports


@dataclass
class TrainedFederation:
    """Frozen server tiers, per-client paths, and all stage reports."""

    config: FederationConfig
    model: HeadModel
    data: FederationData
    clients: list[ClientState]
    server: ServerState
    reports: list[StageReport]
    tracker: BasisTracker

    def path_root(self, i: int) -> AdapterPath:
        p, q = self.model.class_count, self.model.backbone.hidden_dim
        return AdapterPath(root=self.server.root,
                           cluster=zero_adapter(p, q, self.config.rank),
                           leaf=zero_adapter(p, q, self.config.rank))

    def path_cluster(self, i: int) -> AdapterPath:
        p, q = self.model.class_count, self.model.backbone.hidden_dim
        j = self.clients[i].cluster
        return AdapterPath(root=self.server.root, cluster=self.server.clusters[j],
                           leaf=zero_adapter(p, q, self.config.rank))

    def path_full(self, i: int) -> AdapterPath:
        return self.clients[i].path

    @classmethod
    def from_tiers(cls, config, model, data, root, clusters, leaves, assignment, reports,
                   tracker) -> "TrainedFederation":
        """The federation whose client i runs the frozen root, the adapter of
        its assigned cluster (clusters maps label to adapter) and leaves[i]."""
        clients = []
        for i in range(config.n_clients):
            j = int(assignment.labels[i])
            path = AdapterPath(root=root, cluster=clusters[j], leaf=leaves[i])
            clients.append(ClientState(id=i, data=data.clients[i], cluster=j, path=path))
        server = ServerState(root=root, clusters=clusters, assignment=assignment)
        return cls(config=config, model=model, data=data, clients=clients,
                   server=server, reports=reports, tracker=tracker)

    @property
    def rounds_executed(self) -> int:
        root = sum(r.rounds for r in self.reports if r.stage == "root")
        cluster = max((r.rounds for r in self.reports if r.stage == "cluster"), default=0)
        leaf = max((r.rounds for r in self.reports if r.stage == "leaf"), default=0)
        return root + cluster + leaf


@one_blas_thread()
def run_protocol(config: FederationConfig, data: FederationData,
                 model: HeadModel | None = None) -> TrainedFederation:
    """Full cascade: root stage, subspace clustering, cluster stage, leaf
    stage; returns the trained federation with every tier frozen. BLAS runs
    on one thread throughout (linalg.one_blas_thread)."""
    if len(data.clients) != config.n_clients:
        raise ConfigurationError(
            f"config expects {config.n_clients} clients, data has {len(data.clients)}")
    if model is None:
        model = build_model(data.feature_dim, data.class_count,
                            config.hidden_dim, config.master_seed)
    enc = _encode_clients(model, data)
    tracker = BasisTracker(config.ema_decay)
    root_star, root_report = run_root_stage(config, data, model, tracker, enc)
    assignment = cluster_clients(tracker, config.k_min, config.k_max,
                                 seed=config.master_seed, expected_clients=config.n_clients)
    clusters, cluster_reports = run_cluster_stage(config, data, model, assignment,
                                                  root_star, enc)
    leaves, leaf_reports = run_leaf_stage(config, data, model, root_star, clusters,
                                          assignment, enc)
    return TrainedFederation.from_tiers(config, model, data, root_star, clusters, leaves,
                                        assignment, [root_report, *cluster_reports,
                                                     *leaf_reports], tracker)
