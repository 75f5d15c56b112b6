"""The protocol engine: cascaded root -> cluster -> leaf optimization with
progressive freezing.

Each stage trains only its own tier while earlier tiers stay frozen. Server
tiers (root, cluster) aggregate client factor products Sum_i pi_i B_i A_i and
refactorize through a truncated SVD back to rank r. Stages stop on a relative
step-size criterion rho = ||D_new - D_prev||_F / (||D_prev||_F + eps) <= tau,
or on their round budget; a stage whose budget is 0 runs no round and keeps
its initial adapters, whose B is exactly 0. Leaf adapters never leave their
client and their budget is counted in local epochs.

All three stages run on one engine, _run_stage, and on one ClientStack per
run: every client's encoded train rows in client order, which run_protocol
encodes once and the TrainedFederation keeps for the metrics. A stage
function only describes its groups (all clients for the root, each cluster,
each client alone for its leaf): an owner vector gives each client's group
position (zeros for the root, the position of its label among the cluster
ids, arange for the leaves), and each group has an index, the frozen
adapters of the earlier tiers and its report's labels. Group g's members are
the clients whose owner is g, in ascending client order, the order its
aggregation and round loss sum in. The stage functions check the client
count and the assignment's labels; the engine encodes the clients when no
stack is given, draws each group's fresh active adapter from the stage's
"<tier>_init" stream, and fills each group's StageReport round by round. It
holds the stage's state as arrays: each group's active factors and previous
delta, and each member's penalty bases (the B factors of the earlier tiers)
and frozen weight (w0 plus the earlier tiers' updates), built once per stage.
While every group runs, the rounds train on the run's stack itself, so the
layouts it caches serve all three stages and the metrics' loss pass; once
groups retire, the running members, ids, train on train[ids], taken once per
set of running groups. Each round spreads the group factors to the members,
runs one local update on the stack (`workers` > 1 splits it into contiguous
chunks run on a thread pool), refuses local factors that went non-finite,
and aggregates, refactors and stop-checks every group with the stacked forms
of aggregate_product, refactor and stop_check.

Determinism: the local-update kernel lays each client's rows out in fixed
blocks of batch_size rows and computes every (client, block) slice on its
own, so a client's bits do not depend on which clients share its stack or
chunk. Each client draws all of a stage's shuffles from its own stream, and
aggregation reduces in ascending member order, so results are identical for
any worker count on a given machine and BLAS build.
"""

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .clustering import BasisTracker, ClusterAssignment, cluster_clients, ema_update
from .datagen import ClientSplit, FederationData
from .errors import (FINITE_POSITIVE, NON_NEGATIVE, OPEN_UNIT, POSITIVE, ConfigurationError,
                     PreconditionError, check_field_types, check_seed, ruled)
from .linalg import Matrix, as_matrix, frobenius_norm, one_blas_thread, truncated_svd
from .lora import AdapterPath, LoraAdapter, Tier, compose_path, init_adapter, zero_adapter
from .model import (BATCH_MODES, ClientStack, HeadModel, KernelInputs, SgdConfig, build_model,
                    encode, local_update, _stack_losses)
from .streams import stream


@dataclass
class FederationConfig:
    """Protocol hyperparameters. Each field declares its own value rule; the
    rules relating two fields are checked after them: stage budgets sum to
    total_budget, and 2 <= k_min <= k_max with k_min <= n_clients - 1 from
    3 clients on."""

    n_clients: int = ruled(POSITIVE)
    rank: int = ruled(POSITIVE, 2)
    gamma_c: float = ruled(NON_NEGATIVE, 1.0)
    gamma_l: float = ruled(NON_NEGATIVE, 1.0)
    ema_decay: float = ruled(OPEN_UNIT, 0.9)
    tau_rel: float = ruled(FINITE_POSITIVE, 1e-3)
    eps: float = ruled(FINITE_POSITIVE, 1e-8)
    t_root: int = ruled(POSITIVE, 20)
    t_cluster: int = ruled(NON_NEGATIVE, 20)
    t_leaf: int = ruled(NON_NEGATIVE, 10)
    total_budget: int = 50
    lr: float = ruled(FINITE_POSITIVE, 0.05)
    local_epochs: int = ruled(POSITIVE, 1)
    batch_mode: str = ruled(BATCH_MODES, "mini")
    batch_size: int = ruled(POSITIVE, 32)
    k_min: int = 2
    k_max: int = 10
    master_seed: int = 0
    hidden_dim: int = ruled(POSITIVE, 32)
    probe_steps: int = ruled(POSITIVE, 20)
    workers: int = ruled(POSITIVE, 1)

    def __post_init__(self):
        check_field_types(self)
        check_seed(master_seed=self.master_seed)
        if self.t_root + self.t_cluster + self.t_leaf != self.total_budget:
            raise ConfigurationError(
                f"stage budgets {self.t_root}+{self.t_cluster}+{self.t_leaf} "
                f"must sum to total_budget={self.total_budget}")
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


def _check_weights(shapes, weights):
    """One weight per adapter, summing to 1, and one (p, q, rank) for all;
    `shapes` holds each adapter's (p, q, rank)."""
    if len(shapes) != len(weights):
        raise ConfigurationError("one weight per adapter is required")
    if abs(float(np.sum(weights)) - 1.0) > 1e-9:
        raise ConfigurationError("aggregation weights must sum to 1")
    if len(set(shapes)) != 1:
        raise ConfigurationError(f"adapters disagree on dimensions: {set(shapes)}")


def aggregate_product(adapters, weights) -> Matrix:
    """Product-space aggregate Sum_i pi_i B_i A_i (no cross terms), summed in
    member order. `adapters` is a list of LoraAdapters of one shape and rank,
    or their (b, a) pair of (n, p, r) and (n, r, q) factor stacks."""
    if not isinstance(adapters, tuple):   # checked first: mixed shapes cannot stack
        _check_weights([(ad.p, ad.q, ad.rank) for ad in adapters], weights)
        adapters = np.stack([ad.b for ad in adapters]), np.stack([ad.a for ad in adapters])
    b, a = (as_matrix(f, stacked=True) for f in adapters)
    if not b.ndim == a.ndim == 3 or a.shape[:2] != (len(b), b.shape[2]):
        raise ConfigurationError(f"factor stacks {b.shape} and {a.shape} do not pair")
    _check_weights([(b.shape[1], a.shape[2], a.shape[1])] * len(b), weights)
    return reduce(np.add, (w * p for w, p in zip(weights, b @ a)))


def aggregate_separate(adapters: list[LoraAdapter], weights) -> LoraAdapter:
    """Baseline averaging of B and A separately; exhibits cross terms."""
    _check_weights([(ad.p, ad.q, ad.rank) for ad in adapters], weights)
    b = np.zeros_like(adapters[0].b)
    a = np.zeros_like(adapters[0].a)
    for ad, w in zip(adapters, weights):
        b += w * ad.b
        a += w * ad.a
    return LoraAdapter(b=b, a=a, rank=adapters[0].rank)


def refactor(delta_w: Matrix, r: int):
    """Truncated-SVD refactorization: B = U_r, A = Sigma_r V_r^T, as a
    LoraAdapter. An (n, p, q) stack gives the (b, a) pair of (n, p, r) and
    (n, r, q) factor stacks, each matrix's bitwise its own call's."""
    f = truncated_svd(delta_w, r)
    b, a = f.u, f.singular_values[..., None] * f.vt
    return (b, a) if b.ndim == 3 else LoraAdapter(b=b, a=a, rank=r)


def stop_check(delta_prev: Matrix, delta_new: Matrix, tau_rel: float, eps: float):
    """Relative step size rho = ||new - prev||_F / (||prev||_F + eps); stop
    when rho falls at or below tau_rel. Two matrices give (bool, float); two
    (n, p, q) stacks give (n,) arrays, each entry bitwise its pair's."""
    rho = frobenius_norm(np.asarray(delta_new) - np.asarray(delta_prev)) / (
        frobenius_norm(delta_prev) + eps)
    return rho <= tau_rel, rho


def _encode_train(model: HeadModel, data: FederationData) -> ClientStack:
    """Every client's encoded train rows, as one ClientStack in client order."""
    return ClientStack([encode(model, c.train) for c in data.clients])


def _path(config: FederationConfig, model: HeadModel, *adapters: LoraAdapter) -> AdapterPath:
    """The path whose first tiers hold `adapters` and whose other tiers are zero."""
    zero = zero_adapter(*model.w0.shape, config.rank)
    return AdapterPath(*adapters, *[zero] * (len(Tier) - len(adapters)))


# local factors whose norms multiply past this would overflow a server rule:
# the squared norms of a delta and of two deltas' difference must stay finite
_FACTOR_BOUND = np.sqrt(np.finfo(np.float64).max) / 4


def _check_round(config: FederationConfig, active: Tier, t: int, local: KernelInputs):
    """Refuse round t of the active stage once a member's local factors are
    non-finite, or so large that tracking, aggregating or stop-checking them
    would overflow: ||B||_F ||A||_F bounds ||B A||_F."""
    with np.errstate(over="ignore", invalid="ignore"):
        bound = frobenius_norm(local.b) * frobenius_norm(local.a)
    if not np.all(bound <= _FACTOR_BOUND):
        raise ConfigurationError(f"the {active.value} stage diverged in round {t}: its local "
                                 f"factors are non-finite or about to overflow; lower lr "
                                 f"(now {config.lr:g})")


def _stage_settings(config: FederationConfig, active: Tier, rows: int):
    """(round budget, optimiser, penalty weights) of a stage: gamma_c, gamma_l pair
    with the active tier's earlier tiers in order; a leaf round is one local epoch.
    The batch size is capped at `rows`, the most train rows of any client the
    stage may see, since a larger block only adds padding. The cap never
    depends on which clients share a stack, so a client's bits do not either."""
    opt = replace(config.sgd(), epochs=1 if active is Tier.LEAF else config.local_epochs,
                  batch_size=min(config.batch_size, rows))
    gammas = (config.gamma_c, config.gamma_l)[:len(active.earlier)]
    return getattr(config, f"t_{active.value}"), opt, gammas


def _run_stage(config: FederationConfig, model: HeadModel, data: FederationData,
               enc: ClientStack | None, active: Tier, owner: np.ndarray, described,
               tracker: BasisTracker | None = None):
    """Train the active tier of each described group for rounds t = 1..budget,
    the groups in lockstep; returns the trained adapters and the groups'
    StageReports, both in group order.

    owner holds each client's group position, and group g is described as
    (index, frozen, labels): frozen holds the adapters of the tiers before
    the active one, the active adapter starts from stream(master_seed,
    "<tier>_init", index), and labels are its report's (cluster, client).
    Group g's members are the clients with owner == g, in ascending client
    order. The stage functions check that the data holds config.n_clients
    clients; enc, their encoded train rows as one ClientStack in client
    order, is computed here when None.

    The state of the G groups is held as arrays: the active factors b
    (G, C, r) and a (G, r, h) and the delta each group's next stop check
    compares (G, C, h). No earlier tier changes within a stage, so the S
    clients' frozen weights (S, C, h), w0 plus the earlier tiers' updates in
    tier order, and penalty bases (S, C, r), one stack per earlier tier's B
    factors, are built once, in client order. A group's aggregation and
    round-loss weights are weights_root over its members' train sizes. While
    every group runs, the engine trains on enc itself, so the layouts it
    caches serve every stage; once per later set of running groups, the
    members of retired groups are dropped from these arrays and the rest
    train on enc[ids], ids being the running members. Each round then:
    - spreads the group factors to the members by owner and runs one local
      update per chunk of the stack (config.workers > 1 splits it into at
      most that many contiguous chunks, run on a thread pool), then refuses
      the round if a member's factors went non-finite (_check_round);
    - keeps a leaf's local factors; a server group instead aggregates its
      members' products B_i A_i in member order (the tracker, when given,
      first receives every member's local B), and one stacked SVD
      refactors all server groups;
    - takes every group's rho from one stacked stop_check and the round
      loss at frozen + B A; a group retires once rho falls to tau_rel or
      its budget runs out."""
    train = enc if enc is not None else _encode_train(model, data)
    budget, opt, gammas = _stage_settings(config, active, int(train.sizes.max()))
    indices, frozen, labels = zip(*described)
    inits = [init_adapter(*model.w0.shape, config.rank,
                          stream(config.master_seed, f"{active.value}_init", index))
             for index in indices]
    b, a = np.stack([ad.b for ad in inits]), np.stack([ad.a for ad in inits])
    # the path checks the frozen adapters' shapes; its tiers after them are zero
    member_frozen = np.stack([compose_path(_path(config, model, *tiers), model.w0)
                              for tiers in frozen])[owner]
    member_bases = [np.stack([ad.b for ad in tier])[owner] for tier in zip(*frozen)]
    prev = b @ a
    weights = [weights_root(train.sizes[owner == g]) for g in range(len(b))]
    reports = [StageReport(active.value, [], [], 0, "budget", *label) for label in labels]
    shuffles = {i: stream(config.master_seed, f"{active.value}_shuffle", i)
                for i in range(config.n_clients) if opt.batch_mode == "mini"}
    ids = np.arange(config.n_clients)   # the members of the running groups
    packed = None   # the running groups the member arrays below were packed for
    with ThreadPoolExecutor(config.workers) if config.workers > 1 else nullcontext() as pool:
        for t in range(1, budget + 1):
            running = [g for g, report in enumerate(reports) if report.stop_reason == "budget"]
            if not running:
                break
            if running != packed:
                packed = running
                keep = np.isin(owner, running)   # groups only retire: drop their members
                owner, ids, member_frozen = owner[keep], ids[keep], member_frozen[keep]
                member_bases = [base[keep] for base in member_bases]
                members = [np.flatnonzero(owner == g) for g in running]
                # the run's stack itself while every group runs: its cached
                # layouts serve all three stages and the metrics
                stack = train if len(ids) == len(train.clients) else train[ids]
                parts = [slice(ix[0], ix[-1] + 1) for ix in
                         np.array_split(np.arange(len(ids)), min(config.workers, len(ids)))]
                # a single chunk is the stack itself, whose layout the round loss reuses
                chunks = [stack] if len(parts) == 1 else [stack[part] for part in parts]
                rngs = [shuffles.get(i) for i in ids]
            local = KernelInputs(member_frozen, b[owner], a[owner])

            def chunk(part, data):
                return local_update(model, KernelInputs(*(x[part] for x in local)), data, active,
                                    [base[part] for base in member_bases], gammas,
                                    opt=opt, rng=rngs[part])

            # each chunk updates its slice of the local factors in place
            list((map if pool is None else pool.map)(chunk, parts, chunks))
            _check_round(config, active, t, local)
            if active is Tier.LEAF:
                b[running], a[running] = local.b, local.a
                delta_new = local.b @ local.a
            else:
                if tracker is not None:
                    for i, local_b in zip(ids.tolist(), local.b):
                        ema_update(tracker, i, local_b)
                delta_new = np.stack([aggregate_product((local.b[m], local.a[m]), weights[g])
                                      for g, m in zip(running, members)])
                b[running], a[running] = refactor(delta_new, config.rank)
            stopped, rho = stop_check(prev[running], delta_new, config.tau_rel, config.eps)
            prev[running] = delta_new
            del delta_new   # not kept through the loss pass, the round's memory peak
            losses = _stack_losses(member_frozen + (b @ a)[owner], stack)
            for g, m, stop, r in zip(running, members, stopped, rho):
                reports[g].rho.append(float(r))
                reports[g].rounds = len(reports[g].rho)
                reports[g].stop_reason = "criterion" if stop else "budget"
                reports[g].weighted_loss.append(
                    float(sum(wi * x for wi, x in zip(weights[g], losses[m]))))
    return [LoraAdapter(b=b[g], a=a[g], rank=config.rank) for g in range(len(b))], reports


def _client_labels(config: FederationConfig, data: FederationData,
                   assignment: ClusterAssignment | None = None) -> np.ndarray:
    """Check that data holds config.n_clients clients and that the
    assignment gives each of them one non-negative label; returns those
    labels, which the stages build their owner vectors from, or all zeros
    without an assignment (the root stage's one group)."""
    if len(data.clients) != config.n_clients:
        raise ConfigurationError(
            f"config expects {config.n_clients} clients, data has {len(data.clients)}")
    labels = np.zeros(config.n_clients, int) if assignment is None else np.asarray(
        assignment.labels)
    if labels.shape != (config.n_clients,):
        raise ConfigurationError(f"the assignment holds {labels.size} labels for "
                                 f"n_clients={config.n_clients} clients")
    if labels.min() < 0:
        raise ConfigurationError(f"cluster label {labels.min()} is negative")
    return labels


def run_root_stage(config: FederationConfig, data: FederationData, model: HeadModel,
                   tracker: BasisTracker, enc: ClientStack | None = None):
    """Train the global root adapter; feed every client's local basis into the
    EMA tracker each round. Returns the frozen root and the stage report."""
    [root], [report] = _run_stage(config, model, data, enc, Tier.ROOT,
                                  _client_labels(config, data), [(0, (), ())], tracker)
    tracker.rounds = report.rounds
    return root, report


def run_cluster_stage(config: FederationConfig, data: FederationData, model: HeadModel,
                      assignment: ClusterAssignment, root_star: LoraAdapter,
                      enc: ClientStack | None = None):
    """Train one adapter per cluster, each orthogonality-penalized against the
    frozen root; clusters run in lockstep and stop independently within
    t_cluster."""
    ids = assignment.cluster_ids
    owner = np.searchsorted(ids, _client_labels(config, data, assignment))
    clusters, reports = _run_stage(config, model, data, enc, Tier.CLUSTER, owner,
                                   [(j, (root_star,), (j,)) for j in ids])
    return dict(zip(ids, clusters)), reports


def run_leaf_stage(config: FederationConfig, data: FederationData, model: HeadModel,
                   root_star: LoraAdapter, clusters: dict[int, LoraAdapter],
                   assignment: ClusterAssignment,
                   enc: ClientStack | None = None):
    """Train each client's private leaf adapter; no aggregation ever happens.

    The leaf budget is counted in local epochs, with the same relative
    step-size stopping applied to the client's own leaf update.
    """
    labels = _client_labels(config, data, assignment).tolist()
    return _run_stage(config, model, data, enc, Tier.LEAF, np.arange(config.n_clients),
                      [(i, (root_star, clusters[j]), (j, i)) for i, j in enumerate(labels)])


@dataclass
class TrainedFederation:
    """Frozen server tiers, per-client paths, and all stage reports. train
    holds every client's encoded train rows as one ClientStack in client
    order, the stack the three stages trained on (or a reload's encoding of
    it), which the metrics read instead of encoding the rows again."""

    config: FederationConfig
    model: HeadModel
    data: FederationData
    clients: list[ClientState]
    server: ServerState
    reports: list[StageReport]
    tracker: BasisTracker
    train: ClientStack = field(repr=False, compare=False)

    def path_root(self, i: int) -> AdapterPath:
        return _path(self.config, self.model, self.server.root)

    def path_cluster(self, i: int) -> AdapterPath:
        return _path(self.config, self.model, self.server.root,
                     self.server.clusters[self.clients[i].cluster])

    def path_full(self, i: int) -> AdapterPath:
        return self.clients[i].path

    @classmethod
    def from_tiers(cls, config, model, data, root, clusters, leaves, assignment, reports,
                   tracker, train=None) -> "TrainedFederation":
        """The federation whose client i runs the frozen root, the adapter of
        its assigned cluster (clusters maps label to adapter) and leaves[i].
        train, the stack the stages trained on, is encoded here when None, as
        for a reloaded run."""
        clients = []
        for i in range(config.n_clients):
            j = int(assignment.labels[i])
            path = AdapterPath(root=root, cluster=clusters[j], leaf=leaves[i])
            clients.append(ClientState(id=i, data=data.clients[i], cluster=j, path=path))
        server = ServerState(root=root, clusters=clusters, assignment=assignment)
        return cls(config=config, model=model, data=data, clients=clients,
                   server=server, reports=reports, tracker=tracker,
                   train=_encode_train(model, data) if train is None else train)

    @property
    def rounds_executed(self) -> int:
        root = sum(r.rounds for r in self.reports if r.stage == "root")
        cluster = max((r.rounds for r in self.reports if r.stage == "cluster"), default=0)
        leaf = max((r.rounds for r in self.reports if r.stage == "leaf"), default=0)
        return root + cluster + leaf


def _run_clustering(config: FederationConfig, tracker: BasisTracker) -> ClusterAssignment:
    """The run's clustering of the tracker's EMA bases; cluster-diag recomputes it."""
    return cluster_clients(tracker, config.k_min, config.k_max, seed=config.master_seed,
                           expected_clients=config.n_clients)


@one_blas_thread()
def run_protocol(config: FederationConfig, data: FederationData,
                 model: HeadModel | None = None) -> TrainedFederation:
    """Full cascade: root stage, subspace clustering, cluster stage, leaf
    stage; returns the trained federation with every tier frozen. BLAS runs
    on one thread throughout (linalg.one_blas_thread)."""
    if model is None:
        model = build_model(data.feature_dim, data.class_count,
                            config.hidden_dim, config.master_seed)
    train = _encode_train(model, data)
    tracker = BasisTracker(config.ema_decay)
    root_star, root_report = run_root_stage(config, data, model, tracker, train)
    assignment = _run_clustering(config, tracker)
    clusters, cluster_reports = run_cluster_stage(config, data, model, assignment,
                                                  root_star, train)
    leaves, leaf_reports = run_leaf_stage(config, data, model, root_star, clusters,
                                          assignment, train)
    return TrainedFederation.from_tiers(config, model, data, root_star, clusters, leaves,
                                        assignment, [root_report, *cluster_reports,
                                                     *leaf_reports], tracker, train)
