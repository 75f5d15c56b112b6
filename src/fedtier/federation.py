"""The protocol engine: cascaded root -> cluster -> leaf optimization with
progressive freezing.

Each stage trains only its own tier while earlier tiers stay frozen. Server
tiers (root, cluster) aggregate client factor products Sum_i pi_i B_i A_i and
refactorize through a truncated SVD back to rank r; a separate-averaging mode
(averaging B and A independently) exists as a contrast baseline. Stages stop
on a relative step-size criterion rho = ||D_new - D_prev||_F / (||D_prev||_F
+ eps) <= tau, or on their round budget. Leaf adapters never leave their
client and their budget is counted in local epochs.

Determinism: every client draws from its own counter-based stream derived
from (master_seed, stage, round, client), and aggregation reduces in
ascending client order, so results are identical for any worker count.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import BasisTracker, ClusterAssignment, cluster_clients, ema_update
from .datagen import ClientSplit, FederationData
from .errors import ConfigurationError, PreconditionError
from .linalg import Matrix, frobenius_norm, truncated_svd
from .lora import AdapterPath, LoraAdapter, Tier, delta, init_adapter, zero_adapter
from .model import EncodedData, HeadModel, SgdConfig, build_model, encode, local_update, _loss_for_weight

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


def _map_indexed(fn, indices, workers):
    if workers <= 1:
        return [fn(i) for i in indices]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, indices))


def _encode_clients(model, data) -> list[EncodedData]:
    return [encode(model, c.train) for c in data.clients]


def _weighted_loss(model, server_delta, enc_list, weights) -> float:
    w_eff = model.w0 + server_delta
    return float(sum(w * _loss_for_weight(w_eff, e) for w, e in zip(weights, enc_list)))


def _until_stopped(step, delta_prev: Matrix, budget: int, config: FederationConfig,
                   **labels) -> StageReport:
    """Call step(t) for t = 1..budget, where step returns (delta_new, loss),
    until stop_check passes on consecutive deltas or the budget runs out."""
    rhos, losses = [], []
    for t in range(1, budget + 1):
        delta_new, loss = step(t)
        losses.append(loss)
        stop, rho = stop_check(delta_prev, delta_new, config.tau_rel, config.eps)
        rhos.append(rho)
        delta_prev = delta_new
        if stop:
            return StageReport(rho=rhos, weighted_loss=losses, rounds=t,
                               stop_reason="criterion", **labels)
    return StageReport(rho=rhos, weighted_loss=losses, rounds=budget,
                       stop_reason="budget", **labels)


def _train_server_tier(config: FederationConfig, model: HeadModel, enc: list[EncodedData],
                       members: list[int], weights, root: LoraAdapter | None,
                       tracker: BasisTracker | None, cluster: int | None, workers: int):
    """Train one server-tier adapter over `members`: the root when `root` is
    None, else cluster `cluster` above the frozen, orthogonality-penalized
    `root`. Each round runs parallel local updates, reduces them in member
    order, and refactorizes; `tracker`, when given, receives every member's
    local basis each round. Returns the adapter and its stage report."""
    p, q = model.class_count, model.backbone.hidden_dim
    zero = zero_adapter(p, q, config.rank)
    if root is None:
        active, tag, budget, bases, gammas = Tier.ROOT, _TAG_ROOT, config.t_root, (), ()
        server = init_adapter(p, q, config.rank, _rng(config.master_seed, _TAG_ROOT_INIT, 0, 0))
        frame = AdapterPath(root=zero, cluster=zero, leaf=zero)
    else:
        active, tag, budget = Tier.CLUSTER, _TAG_CLUSTER, config.t_cluster
        bases, gammas = (root.b,), (config.gamma_c,)
        server = init_adapter(p, q, config.rank,
                              _rng(config.master_seed, _TAG_CLUSTER_INIT, 0, cluster))
        frame = AdapterPath(root=root, cluster=zero, leaf=zero)
    enc_members = [enc[i] for i in members]
    opt = config.sgd()

    def step(rnd):
        nonlocal server
        path = frame.replace(active, server)

        def one(pos):
            return local_update(model, path, enc_members[pos], active, bases, gammas,
                                opt=opt, rng=_rng(config.master_seed, tag, rnd, members[pos]))

        local = _map_indexed(one, range(len(members)), workers)
        if tracker is not None:
            for i, ad in zip(members, local):
                ema_update(tracker, i, ad.b)
        if config.aggregation_mode == "product_svd":
            delta_new = aggregate_product(local, weights)
            server = refactor(delta_new, config.rank)
        else:
            server = aggregate_separate(local, weights)
            delta_new = delta(server)
        server_delta = delta(server) if root is None else delta(root) + delta(server)
        return delta_new, _weighted_loss(model, server_delta, enc_members, weights)

    report = _until_stopped(step, delta(server), budget, config,
                            stage=active.value, cluster=cluster)
    if tracker is not None:
        tracker.rounds = report.rounds
    return server, report


def run_root_stage(config: FederationConfig, data: FederationData, model: HeadModel,
                   tracker: BasisTracker, enc: list[EncodedData] | None = None,
                   workers: int | None = None):
    """Train the global root adapter; feed every client's local basis into the
    EMA tracker each round. Returns the frozen root and the stage report."""
    workers = config.workers if workers is None else workers
    enc = enc if enc is not None else _encode_clients(model, data)
    return _train_server_tier(config, model, enc, list(range(config.n_clients)),
                              weights_root(data.train_sizes), None, tracker, None, workers)


def run_cluster_stage(config: FederationConfig, data: FederationData, model: HeadModel,
                      assignment: ClusterAssignment, root_star: LoraAdapter,
                      enc: list[EncodedData] | None = None,
                      workers: int | None = None):
    """Train one adapter per cluster, each orthogonality-penalized against the
    frozen root; clusters run and stop independently within t_cluster."""
    workers = config.workers if workers is None else workers
    enc = enc if enc is not None else _encode_clients(model, data)
    clusters: dict[int, LoraAdapter] = {}
    reports = []
    for j in assignment.cluster_ids:
        members = assignment.members(j)
        clusters[j], report = _train_server_tier(
            config, model, enc, members, weights_cluster(data.train_sizes, members),
            root_star, None, j, workers)
        reports.append(report)
    return clusters, reports


def run_leaf_stage(config: FederationConfig, data: FederationData, model: HeadModel,
                   root_star: LoraAdapter, clusters: dict[int, LoraAdapter],
                   assignment: ClusterAssignment,
                   enc: list[EncodedData] | None = None,
                   workers: int | None = None):
    """Train each client's private leaf adapter; no aggregation ever happens.

    The leaf budget is counted in local epochs, with the same relative
    step-size stopping applied to the client's own leaf update.
    """
    workers = config.workers if workers is None else workers
    enc = enc if enc is not None else _encode_clients(model, data)
    p, q = model.class_count, model.backbone.hidden_dim
    opt = replace(config.sgd(), epochs=1)
    gammas = (config.gamma_c, config.gamma_l)

    def one(i):
        j = int(assignment.labels[i])
        cluster_ad = clusters[j]
        bases = (root_star.b, cluster_ad.b)
        leaf = init_adapter(p, q, config.rank,
                            _rng(config.master_seed, _TAG_LEAF_INIT, 0, i))
        base_delta = delta(root_star) + delta(cluster_ad)

        def step(e):
            nonlocal leaf
            path = AdapterPath(root=root_star, cluster=cluster_ad, leaf=leaf,
                               cluster_index=j, client_index=i)
            leaf = local_update(model, path, enc[i], Tier.LEAF, bases, gammas,
                                opt=opt, rng=_rng(config.master_seed, _TAG_LEAF, e, i))
            delta_new = delta(leaf)
            return delta_new, _loss_for_weight(model.w0 + base_delta + delta_new, enc[i])

        report = _until_stopped(step, delta(leaf), config.t_leaf, config,
                                stage="leaf", cluster=j, client=i)
        return leaf, report

    results = _map_indexed(one, range(config.n_clients), workers)
    leaves = [r[0] for r in results]
    reports = [r[1] for r in results]
    return leaves, reports


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
                 model: HeadModel | None = None,
                 workers: int | None = None) -> TrainedFederation:
    """Full cascade: root stage, subspace clustering, cluster stage, leaf
    stage; returns the trained federation with every tier frozen."""
    if len(data.clients) != config.n_clients:
        raise ConfigurationError(
            f"config expects {config.n_clients} clients, data has {len(data.clients)}")
    if model is None:
        model = build_model(data.feature_dim, data.class_count,
                            config.hidden_dim, config.master_seed)
    workers = config.workers if workers is None else workers
    enc = _encode_clients(model, data)
    tracker = BasisTracker(config.ema_decay)
    p, q = model.class_count, model.backbone.hidden_dim

    root_star, root_report = run_root_stage(config, data, model, tracker, enc, workers)
    reports = [root_report]

    n = config.n_clients
    assignment = cluster_clients(tracker, config.k_min, min(config.k_max, n - 1),
                                 seed=config.master_seed, expected_clients=n)

    if config.t_cluster > 0:
        clusters, cluster_reports = run_cluster_stage(
            config, data, model, assignment, root_star, enc, workers)
        reports.extend(cluster_reports)
    else:
        clusters = {j: zero_adapter(p, q, config.rank) for j in assignment.cluster_ids}

    if config.t_leaf > 0:
        leaves, leaf_reports = run_leaf_stage(
            config, data, model, root_star, clusters, assignment, enc, workers)
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
