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
delta, and each member's penalty pair (the B factors of the earlier tiers
on its path side by side, and their transposes scaled by 2 gamma) and
frozen weight (w0 plus the earlier tiers' updates), built once per stage,
and so are each chunk's frozen logits (the frozen weights applied to its
rows, which the kernel's factored step adds B (A z) to), in either batch
mode. The factors, frozen weights and penalty pair start as one
model._stack_inputs call over the groups' paths with the stage's gammas,
the one builder of the kernel's inputs from adapters and the one check of
the gammas, spread once to the members.
Every round trains the whole stack, so the layouts it caches serve all three
stages and the metrics' loss pass; a retired group's members still run their
local update, but nothing reads it. Each round spreads the group factors to
the members, runs one local update on the stack (`workers` > 1 splits it
into contiguous chunks run on a thread pool), refuses local factors that
went non-finite, and aggregates, refactors and stop-checks every running
group with the stacked forms of aggregate_product, refactor and stop_check.

The trained federation holds each tier once: the root, the cluster adapters
by label and the leaves in client order. A client's paths, its cluster and
its data are derived from them, the assignment's labels and the data.

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
from functools import cached_property

import numpy as np

from .clustering import BasisTracker, ClusterAssignment, cluster_clients, ema_update
from .datagen import FederationData
from .errors import (FINITE_POSITIVE, NON_NEGATIVE, OPEN_UNIT, POSITIVE, ConfigurationError,
                     PreconditionError, Rule, check_field_types, check_seed, check_types,
                     ruled)
from .linalg import Matrix, as_matrix, frobenius_norm, one_blas_thread, truncated_svd
from .lora import AdapterPath, LoraAdapter, Tier, init_adapter, zero_adapter
from .model import (BATCH_MODES, ClientStack, HeadModel, KernelInputs, SgdConfig, build_model,
                    encode, local_update, _frozen_logits, _stack_inputs, _stack_losses)
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
    member order by one reduction over the member axis (numpy sums a 1×1
    product's member axis pairwise instead). `adapters` is a list of
    LoraAdapters of one shape and rank, or their (b, a) pair of (n, p, r)
    and (n, r, q) factor stacks."""
    if not isinstance(adapters, tuple):   # checked first: mixed shapes cannot stack
        _check_weights([(ad.p, ad.q, ad.rank) for ad in adapters], weights)
        adapters = np.stack([ad.b for ad in adapters]), np.stack([ad.a for ad in adapters])
    b, a = (as_matrix(f, stacked=True) for f in adapters)
    if not b.ndim == a.ndim == 3 or a.shape[:2] != (len(b), b.shape[2]):
        raise ConfigurationError(f"factor stacks {b.shape} and {a.shape} do not pair")
    _check_weights([(b.shape[1], a.shape[2], a.shape[1])] * len(b), weights)
    products = b @ a
    products *= np.asarray(weights, dtype=np.float64)[:, None, None]
    return np.add.reduce(products, axis=0)


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
    (n, p, q) stacks give (n,) arrays, each entry bitwise its pair's; the
    two must share a shape."""
    if np.shape(delta_prev) != np.shape(delta_new):
        raise ConfigurationError(f"stop_check needs deltas of one shape, got "
                                 f"{np.shape(delta_prev)} and {np.shape(delta_new)}")
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
    would overflow: ||B||_F ||A||_F bounds ||B A||_F. The product of the
    squared norms is held to the bound's square, so a non-finite factor (a
    NaN or inf product) fails it too, and nothing warns."""
    b, a = local.b.reshape(len(local.b), -1), local.a.reshape(len(local.a), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        squares = (b * b).sum(axis=1) * (a * a).sum(axis=1)
    if not (squares <= _FACTOR_BOUND ** 2).all():
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
    order, is computed here when None. A config.rank above min(class count,
    hidden_dim), which no adapter can have, is refused before anything is
    drawn.

    The state of the G groups is held as arrays: the active factors b
    (G, C, r) and a (G, r, h) and the delta each group's next stop check
    compares (G, C, h). No earlier tier changes within a stage, so the S
    clients' frozen weights (S, C, h), w0 plus the earlier tiers' updates in
    tier order, and the penalty pair, the B factors of the earlier tiers
    with a non-zero gamma side by side (S, C, P) and their transposes scaled
    by 2 gamma (S, P, C), are built once, in client order. All of them come
    from one _stack_inputs call over the groups' paths (_path of the frozen
    tiers and the fresh adapter) with the stage's gammas, which it checks
    once; its KernelInputs are then spread to the
    members by owner (KernelInputs.select); each round's inputs are that
    spread with the members' current factors. The rows are fixed too, so
    in either batch mode each chunk's frozen logits (model._frozen_logits of
    its members' frozen weights over its own layout) are computed once and
    passed to every round's local update, whose factored step adds
    B (A z) to them; a mini-batch step reads them gathered with its rows.
    A group's aggregation and round-loss weights are weights_root over its
    members' train sizes. Every round trains on enc itself, so the layouts
    it caches serve every stage; the members of a retired group still run
    their local update, but nothing reads it, and a client's bits do not
    depend on its stack mates.
    Each round then:
    - spreads the group factors to the members by owner and runs one local
      update per chunk of the stack (config.workers > 1 splits it into at
      most that many contiguous chunks, run on a thread pool), then refuses
      the round if a member's factors went non-finite (_check_round);
    - keeps a running leaf's local factors; a running server group instead
      aggregates its members' products B_i A_i in member order (the
      tracker, given only to the root stage's one group, first receives
      every member's local B in one stacked ema_update call), and one
      stacked SVD refactors them all;
    - takes every running group's rho from one stacked stop_check and the
      round loss at frozen + B A; a group retires once rho falls to tau_rel
      or its budget runs out."""
    if config.rank > min(model.w0.shape):
        raise ConfigurationError(f"rank={config.rank} exceeds min(class count, hidden_dim) = "
                                 f"min{model.w0.shape}: no adapter has that rank")
    train = enc if enc is not None else _encode_train(model, data)
    budget, opt, gammas = _stage_settings(config, active, int(train.sizes.max()))
    indices, frozen, labels = zip(*described)
    inits = [init_adapter(*model.w0.shape, config.rank,
                          stream(config.master_seed, f"{active.value}_init", index))
             for index in indices]
    # each group's path holds its frozen tiers, its fresh active adapter, then zero tiers
    spread = _stack_inputs(model, [_path(config, model, *tiers, init)
                                   for tiers, init in zip(frozen, inits)], active, gammas)
    b, a = spread.b, spread.a
    # each member's frozen weight and penalty pair, spread once; the groups'
    # stacks are not kept through the rounds
    spread = spread.select(owner)
    prev = b @ a
    members = [np.flatnonzero(owner == g) for g in range(len(b))]
    weights = [weights_root(train.sizes[m]) for m in members]
    reports = [StageReport(active.value, [], [], 0, "budget", *label) for label in labels]
    rngs = [stream(config.master_seed, f"{active.value}_shuffle", i)
            if opt.batch_mode == "mini" else None for i in range(config.n_clients)]
    parts = [slice(ix[0], ix[-1] + 1) for ix in np.array_split(
        np.arange(config.n_clients), min(config.workers, config.n_clients))]
    # a single chunk is the stack itself, whose layout the round loss reuses
    chunks = [train] if len(parts) == 1 else [train[part] for part in parts]
    # a chunk's frozen logits are fixed for the stage: computed once, from
    # its own layout
    logits = [_frozen_logits(spread.frozen[part], stack.layout(opt.batch_size)[0])
              for part, stack in zip(parts, chunks)]
    with ThreadPoolExecutor(config.workers) if config.workers > 1 else nullcontext() as pool:
        for t in range(1, budget + 1):
            running = [g for g, report in enumerate(reports) if report.stop_reason == "budget"]
            if not running:
                break
            local = spread._replace(b=b[owner], a=a[owner])

            def chunk(part, data, frozen_logits):
                return local_update(model, local.select(part), data, opt=opt, rng=rngs[part],
                                    frozen_logits=frozen_logits)

            # each chunk updates its slice of the local factors in place
            list((map if pool is None else pool.map)(chunk, parts, chunks, logits))
            _check_round(config, active, t, local)
            if active is Tier.LEAF:
                b[running], a[running] = local.b[running], local.a[running]
                delta_new = b[running] @ a[running]
            else:
                if tracker is not None:
                    ema_update(tracker, range(len(local.b)), local.b)
                delta_new = np.stack([aggregate_product((local.b[members[g]],
                                                         local.a[members[g]]), weights[g])
                                      for g in running])
                b[running], a[running] = refactor(delta_new, config.rank)
            stopped, rho = stop_check(prev[running], delta_new, config.tau_rel, config.eps)
            prev[running] = delta_new
            del delta_new   # not kept through the loss pass, the round's memory peak
            losses = _stack_losses(spread.frozen + (b @ a)[owner], train)
            for g, stop, r in zip(running, stopped, rho):
                reports[g].rho.append(float(r))
                reports[g].rounds = len(reports[g].rho)
                reports[g].stop_reason = "criterion" if stop else "budget"
                reports[g].weighted_loss.append(
                    float(sum(wi * x for wi, x in zip(weights[g], losses[members[g]]))))
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
    """Frozen server tiers, one leaf per client in client order, and all
    stage reports. Client i runs the root, the cluster adapter of its label
    in server.assignment and leaves[i]; its paths are derived from these.
    train, every client's encoded train rows as one ClientStack in client
    order, is encoded on first read; run_protocol sets it to the stack the
    three stages trained on, so the metrics never encode the rows again.
    The parts must fit together: a root, clusters and an assignment, one
    label and one leaf per client, a cluster adapter for every assigned
    label, and every adapter of w0's shape; anything else is refused with
    a ConfigurationError."""

    config: FederationConfig
    model: HeadModel
    data: FederationData
    server: ServerState
    leaves: list[LoraAdapter]
    reports: list[StageReport]
    tracker: BasisTracker

    def __post_init__(self):
        if self.server.root is None or not self.server.clusters or self.server.assignment is None:
            raise ConfigurationError("server is not fully trained: it needs a root, clusters "
                                     "and an assignment")
        labels, n = self.server.assignment.labels, self.config.n_clients
        if len(labels) != n or len(self.leaves) != n:
            raise ConfigurationError(f"server does not fit the federation: {len(labels)} labels "
                                     f"and {len(self.leaves)} leaves for {n} clients")
        if missing := sorted(set(labels.tolist()) - set(self.server.clusters)):
            raise ConfigurationError(f"server is not fully trained: no cluster adapter for "
                                     f"the assigned labels {missing}")
        shapes = {(ad.p, ad.q) for ad in (self.server.root, *self.server.clusters.values(),
                                          *self.leaves)}
        if shapes != {self.model.w0.shape}:
            raise ConfigurationError(f"adapter dimensions {sorted(shapes)} do not match the "
                                     f"base weight {self.model.w0.shape}")

    @cached_property
    def train(self) -> ClientStack:
        return _encode_train(self.model, self.data)

    def cluster_of(self, i: int) -> int:
        """Client i's cluster label; i must be an int client index."""
        check_types(int, Rule("must lie in [0, n_clients)", lo=0, hi=self.config.n_clients,
                              closed_lo=True), client_id=i)
        return int(self.server.assignment.labels[i])

    def path_root(self, i: int) -> AdapterPath:
        self.cluster_of(i)   # checks i
        return _path(self.config, self.model, self.server.root)

    def path_cluster(self, i: int) -> AdapterPath:
        return _path(self.config, self.model, self.server.root,
                     self.server.clusters[self.cluster_of(i)])

    def path_full(self, i: int) -> AdapterPath:
        return AdapterPath(self.server.root, self.server.clusters[self.cluster_of(i)],
                           self.leaves[i])

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
    on one thread throughout (linalg.one_blas_thread). A given model must be
    config.hidden_dim wide."""
    if model is None:
        model = build_model(data.feature_dim, data.class_count,
                            config.hidden_dim, config.master_seed)
    elif model.backbone.hidden_dim != config.hidden_dim:
        raise ConfigurationError(f"the model's hidden_dim is {model.backbone.hidden_dim}, the "
                                 f"config's {config.hidden_dim}")
    train = _encode_train(model, data)
    tracker = BasisTracker(config.ema_decay)
    root_star, root_report = run_root_stage(config, data, model, tracker, train)
    assignment = _run_clustering(config, tracker)
    clusters, cluster_reports = run_cluster_stage(config, data, model, assignment,
                                                  root_star, train)
    leaves, leaf_reports = run_leaf_stage(config, data, model, root_star, clusters,
                                          assignment, train)
    fed = TrainedFederation(config, model, data,
                            ServerState(root=root_star, clusters=clusters, assignment=assignment),
                            leaves, [root_report, *cluster_reports, *leaf_reports], tracker)
    fed.train = train   # the stack the stages trained on: never encoded again
    return fed
