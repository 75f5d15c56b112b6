"""The protocol engine: cascaded root -> cluster -> leaf optimization with
progressive freezing.

Each stage trains only its own tier while earlier tiers stay frozen. Server
tiers (root, cluster) aggregate client factor products Sum_i pi_i B_i A_i and
refactorize through a truncated SVD back to rank r; a separate-averaging mode
(averaging B and A independently) exists as a contrast baseline. Stages stop
on a relative step-size criterion rho = ||D_new - D_prev||_F / (||D_prev||_F
+ eps) <= tau, or on their round budget. Leaf adapters never leave their
client and their budget is counted in local epochs.

Each round stacks the members of every still-running group (all clients
for the root, each cluster's members, each client alone for its leaf) into
one local update; `workers` > 1 splits that stack into contiguous chunks run
on a thread pool.

Determinism: the local-update kernel lays each client's rows out in fixed
blocks of batch_size rows and computes every (client, block) slice on its
own, so a client's bits do not depend on which clients share its stack or
chunk. Every client draws its shuffles from its own counter-based stream
derived from (master_seed, stage, round, client), and aggregation reduces in
ascending member order, so results are identical for any worker count on a
given machine and BLAS build.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import BasisTracker, ClusterAssignment, cluster_clients, ema_update
from .datagen import ClientSplit, FederationData
from .errors import ConfigurationError, PreconditionError
from .linalg import Matrix, frobenius_norm, truncated_svd
from .lora import AdapterPath, LoraAdapter, Tier, delta, init_adapter, zero_adapter
from .model import (ClientStack, EncodedData, HeadModel, SgdConfig, build_model, encode,
                    local_update, _stack_losses)

# stream tags so no two purposes ever share an rng stream
_TAG_ROOT, _TAG_CLUSTER, _TAG_LEAF = 1, 2, 3
_TAG_ROOT_INIT, _TAG_CLUSTER_INIT, _TAG_LEAF_INIT = 11, 12, 13

AGGREGATION_MODES = ("product_svd", "separate_average")


def _rng(master_seed: int, tag: int, rnd: int, entity: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, tag, rnd, entity])


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
    aggregation_mode: str = "product_svd"
    master_seed: int = 0
    hidden_dim: int = 32
    probe_steps: int = 20
    workers: int = 1

    def __post_init__(self):
        if self.n_clients < 1:
            raise ConfigurationError("n_clients must be positive")
        if self.rank < 1:
            raise ConfigurationError("rank must be positive")
        if not (0 <= self.gamma_c < math.inf and 0 <= self.gamma_l < math.inf):
            raise ConfigurationError("penalty weights must be finite and non-negative")
        if not 0.0 < self.ema_decay < 1.0:
            raise ConfigurationError("ema_decay must lie in (0, 1)")
        if not 0 < self.tau_rel < math.inf:
            raise ConfigurationError("tau_rel must be finite and positive")
        if not 0 < self.eps < math.inf:
            raise ConfigurationError("eps must be finite and positive")
        if min(self.t_root, self.t_cluster, self.t_leaf) < 0:
            raise ConfigurationError("stage budgets must be non-negative")
        if self.t_root + self.t_cluster + self.t_leaf != self.total_budget:
            raise ConfigurationError(
                f"stage budgets {self.t_root}+{self.t_cluster}+{self.t_leaf} "
                f"must sum to total_budget={self.total_budget}")
        if not 0 < self.lr < math.inf:
            raise ConfigurationError("lr must be finite and positive")
        if self.local_epochs < 1:
            raise ConfigurationError("local_epochs must be positive")
        if self.batch_mode not in ("full", "mini"):
            raise ConfigurationError(f"unknown batch mode {self.batch_mode!r}")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be positive")
        if not 2 <= self.k_min <= self.k_max:
            raise ConfigurationError("need 2 <= k_min <= k_max")
        if self.aggregation_mode not in AGGREGATION_MODES:
            raise ConfigurationError(
                f"aggregation_mode must be one of {AGGREGATION_MODES}")
        if self.hidden_dim < 1:
            raise ConfigurationError("hidden_dim must be positive")
        if self.probe_steps < 1:
            raise ConfigurationError("probe_steps must be positive")
        if self.workers < 1:
            raise ConfigurationError("workers must be positive")

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
    leaf stage."""

    members: list[int]
    weights: np.ndarray
    frame: AdapterPath       # frozen tiers; the active slot is refilled each round
    adapter: LoraAdapter     # the adapter the group trains
    bases: tuple             # frozen B factors the active tier is penalized against
    frozen_delta: Matrix     # frozen tiers' update, included in the loss
    labels: dict             # the StageReport's cluster and client fields
    rho: list[float] = field(default_factory=list)
    loss: list[float] = field(default_factory=list)
    stopped: bool = False
    prev_delta: Matrix = field(init=False)   # what the next stop check compares against

    def __post_init__(self):
        self.prev_delta = delta(self.adapter)


def _stage_settings(config: FederationConfig, active: Tier):
    """(stream tag, round budget, optimiser, penalty weights) of a stage;
    a leaf round is one local epoch."""
    if active is Tier.ROOT:
        return _TAG_ROOT, config.t_root, config.sgd(), ()
    if active is Tier.CLUSTER:
        return _TAG_CLUSTER, config.t_cluster, config.sgd(), (config.gamma_c,)
    return (_TAG_LEAF, config.t_leaf, replace(config.sgd(), epochs=1),
            (config.gamma_c, config.gamma_l))


def _chunks(count: int, parts: int) -> list[tuple[int, int]]:
    """At most `parts` contiguous, near-equal (start, stop) ranges over count."""
    parts = min(parts, count)
    size, extra = divmod(count, parts)
    bounds = [0]
    for k in range(parts):
        bounds.append(bounds[-1] + size + (k < extra))
    return list(zip(bounds[:-1], bounds[1:]))


def _until_stopped(config: FederationConfig, model: HeadModel, enc: list[EncodedData],
                   active: Tier, groups: list[_Group], absorb) -> list[StageReport]:
    """Advance the groups in lockstep for rounds t = 1..budget.

    Each round stacks the members of every running group, in group order,
    into one local update; with config.workers > 1 the stack is split into
    at most that many contiguous chunks run on a thread pool. absorb(group, local)
    then returns the group's new adapter and the delta its stop check
    compares, and a group retires once stop_check passes on consecutive
    deltas or the budget runs out."""
    tag, budget, opt, gammas = _stage_settings(config, active)
    with ThreadPoolExecutor(config.workers) if config.workers > 1 else nullcontext() as pool:
        for t in range(1, budget + 1):
            running = [g for g in groups if not g.stopped]
            if not running:
                break
            paths, stack, rngs, bases, spans = [], [], [], [[] for _ in gammas], []
            for g in running:
                spans.append((len(paths), len(paths) + len(g.members)))
                path = g.frame.replace(active, g.adapter)
                for i in g.members:
                    paths.append(path)
                    stack.append(enc[i])
                    rngs.append(_rng(config.master_seed, tag, t, i)
                                if opt.batch_mode == "mini" else None)
                    for entry, base in zip(bases, g.bases):
                        entry.append(base)
            stack = ClientStack(stack)

            def chunk(bounds):
                lo, hi = bounds
                return local_update(model, paths[lo:hi], stack[lo:hi], active,
                                    [entry[lo:hi] for entry in bases], gammas,
                                    opt=opt, rng=rngs[lo:hi])

            parts = _chunks(len(paths), config.workers)
            results = map(chunk, parts) if pool is None else pool.map(chunk, parts)
            local = [ad for part in results for ad in part]
            new_deltas, w_eff = [], []
            for g, (lo, hi) in zip(running, spans):
                g.adapter, delta_new = absorb(g, local[lo:hi])
                new_deltas.append(delta_new)
                w_eff += [model.w0 + (g.frozen_delta + delta(g.adapter))] * (hi - lo)
            losses = _stack_losses(np.stack(w_eff), stack)
            for g, (lo, hi), delta_new in zip(running, spans, new_deltas):
                g.loss.append(float(sum(w * x for w, x in zip(g.weights, losses[lo:hi]))))
                g.stopped, rho = stop_check(g.prev_delta, delta_new, config.tau_rel, config.eps)
                g.rho.append(rho)
                g.prev_delta = delta_new
    return [StageReport(stage=active.value, rho=g.rho, weighted_loss=g.loss,
                        rounds=len(g.rho), stop_reason="criterion" if g.stopped else "budget",
                        **g.labels)
            for g in groups]


def _server_absorb(config: FederationConfig, tracker: BasisTracker | None):
    """Aggregate a server group's local adapters in member order and refactor
    (or average the factors in separate_average mode); `tracker`, when
    given, first receives every member's local basis."""
    def absorb(group, local):
        if tracker is not None:
            for i, ad in zip(group.members, local):
                ema_update(tracker, i, ad.b)
        if config.aggregation_mode == "product_svd":
            delta_new = aggregate_product(local, group.weights)
            return refactor(delta_new, config.rank), delta_new
        server = aggregate_separate(local, group.weights)
        return server, delta(server)
    return absorb


def _leaf_absorb(group, local):
    return local[0], delta(local[0])


def run_root_stage(config: FederationConfig, data: FederationData, model: HeadModel,
                   tracker: BasisTracker, enc: list[EncodedData] | None = None):
    """Train the global root adapter; feed every client's local basis into the
    EMA tracker each round. Returns the frozen root and the stage report."""
    enc = enc if enc is not None else _encode_clients(model, data)
    p, q = model.class_count, model.backbone.hidden_dim
    zero = zero_adapter(p, q, config.rank)
    group = _Group(members=list(range(config.n_clients)),
                   weights=weights_root(data.train_sizes),
                   frame=AdapterPath(root=zero, cluster=zero, leaf=zero),
                   adapter=init_adapter(p, q, config.rank,
                                        _rng(config.master_seed, _TAG_ROOT_INIT, 0, 0)),
                   bases=(), frozen_delta=np.zeros((p, q)), labels={"cluster": None})
    [report] = _until_stopped(config, model, enc, Tier.ROOT, [group],
                              _server_absorb(config, tracker))
    tracker.rounds = report.rounds
    return group.adapter, report


def run_cluster_stage(config: FederationConfig, data: FederationData, model: HeadModel,
                      assignment: ClusterAssignment, root_star: LoraAdapter,
                      enc: list[EncodedData] | None = None):
    """Train one adapter per cluster, each orthogonality-penalized against the
    frozen root; clusters run in lockstep and stop independently within
    t_cluster."""
    enc = enc if enc is not None else _encode_clients(model, data)
    p, q = model.class_count, model.backbone.hidden_dim
    zero = zero_adapter(p, q, config.rank)
    frame = AdapterPath(root=root_star, cluster=zero, leaf=zero)
    groups = []
    for j in assignment.cluster_ids:
        members = assignment.members(j)
        groups.append(_Group(
            members=members, weights=weights_cluster(data.train_sizes, members),
            frame=frame,
            adapter=init_adapter(p, q, config.rank,
                                 _rng(config.master_seed, _TAG_CLUSTER_INIT, 0, j)),
            bases=(root_star.b,), frozen_delta=delta(root_star), labels={"cluster": j}))
    reports = _until_stopped(config, model, enc, Tier.CLUSTER, groups,
                             _server_absorb(config, None))
    clusters = {g.labels["cluster"]: g.adapter for g in groups}
    return clusters, reports


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
    frozen_delta = {j: delta(root_star) + delta(ad) for j, ad in clusters.items()}
    groups = []
    for i in range(config.n_clients):
        j = int(assignment.labels[i])
        leaf = init_adapter(p, q, config.rank, _rng(config.master_seed, _TAG_LEAF_INIT, 0, i))
        groups.append(_Group(
            members=[i], weights=np.ones(1),
            frame=AdapterPath(root=root_star, cluster=clusters[j], leaf=leaf,
                              cluster_index=j, client_index=i),
            adapter=leaf, bases=(root_star.b, clusters[j].b),
            frozen_delta=frozen_delta[j], labels={"cluster": j, "client": i}))
    reports = _until_stopped(config, model, enc, Tier.LEAF, groups, _leaf_absorb)
    return [g.adapter for g in groups], reports


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
                           leaf=zero_adapter(p, q, self.config.rank),
                           client_index=i)

    def path_cluster(self, i: int) -> AdapterPath:
        p, q = self.model.class_count, self.model.backbone.hidden_dim
        j = self.clients[i].cluster
        return AdapterPath(root=self.server.root, cluster=self.server.clusters[j],
                           leaf=zero_adapter(p, q, self.config.rank),
                           cluster_index=j, client_index=i)

    def path_full(self, i: int) -> AdapterPath:
        return self.clients[i].path

    @property
    def rounds_executed(self) -> int:
        root = sum(r.rounds for r in self.reports if r.stage == "root")
        cluster = max((r.rounds for r in self.reports if r.stage == "cluster"), default=0)
        leaf = max((r.rounds for r in self.reports if r.stage == "leaf"), default=0)
        return root + cluster + leaf


def run_protocol(config: FederationConfig, data: FederationData,
                 model: HeadModel | None = None) -> TrainedFederation:
    """Full cascade: root stage, subspace clustering, cluster stage, leaf
    stage; returns the trained federation with every tier frozen."""
    if len(data.clients) != config.n_clients:
        raise ConfigurationError(
            f"config expects {config.n_clients} clients, data has {len(data.clients)}")
    if model is None:
        model = build_model(data.feature_dim, data.class_count,
                            config.hidden_dim, config.master_seed)
    enc = _encode_clients(model, data)
    tracker = BasisTracker(config.ema_decay)
    p, q = model.class_count, model.backbone.hidden_dim

    root_star, root_report = run_root_stage(config, data, model, tracker, enc)
    reports = [root_report]

    n = config.n_clients
    assignment = cluster_clients(tracker, config.k_min, min(config.k_max, n - 1),
                                 seed=config.master_seed, expected_clients=n)

    if config.t_cluster > 0:
        clusters, cluster_reports = run_cluster_stage(
            config, data, model, assignment, root_star, enc)
        reports.extend(cluster_reports)
    else:
        clusters = {j: zero_adapter(p, q, config.rank) for j in assignment.cluster_ids}

    if config.t_leaf > 0:
        leaves, leaf_reports = run_leaf_stage(
            config, data, model, root_star, clusters, assignment, enc)
        reports.extend(leaf_reports)
    else:
        leaves = [zero_adapter(p, q, config.rank) for _ in range(n)]

    clients = []
    for i in range(n):
        j = int(assignment.labels[i])
        path = AdapterPath(root=root_star, cluster=clusters[j], leaf=leaves[i],
                           cluster_index=j, client_index=i)
        clients.append(ClientState(id=i, data=data.clients[i], cluster=j, path=path))
    server = ServerState(root=root_star, clusters=clusters, assignment=assignment)
    return TrainedFederation(config=config, model=model, data=data, clients=clients,
                             server=server, reports=reports, tracker=tracker)
