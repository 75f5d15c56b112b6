"""Desk-scale predictor: a frozen random-feature backbone feeding one
LoRA-adapted linear head.

The backbone z = tanh(M x + bias) is fixed at construction; all learning is
carried by the composed low-rank update on the head weight (class_count ×
hidden_dim). Cross-entropy loss and plain gradient-descent local updates
live here: one blocked kernel updates a whole stack of clients at once, with
one form of its inputs (KernelInputs: stacked frozen weights and active
factors, built from AdapterPaths or handed over by the stage engine) and one
step loop over block spans (all blocks in full batch, one in mini batch).
The analytic tier gradient is that kernel's gradient on a stack of one.
Every score is the kernel's too: the loss and the argmax accuracy read the
same blocks and the same mask of real rows, which a ClientStack's layout
holds together, so a client scores the same bits alone or in any stack. A
block longer than a client's rows only adds padding: local_update takes the
batch size as given, and the stage settings (federation._stage_settings)
cap it at the largest client they may see. The central finite-difference
oracle used by tests and the gradcheck command checks the gradient.
"""

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import (FINITE_POSITIVE, NON_NEGATIVE, POSITIVE, ConfigurationError,
                     PreconditionError, check_field_types, check_types, one_of, ruled)
from .linalg import Matrix, as_matrix
from .lora import (AdapterPath, LoraAdapter, Tier, compose_path, delta, orth_penalty,
                   orth_penalty_grad)
from .streams import stream

_PROB_FLOOR = 1e-12  # clamp applied before log so confidently wrong predictions stay finite


@dataclass(frozen=True)
class FrozenBackbone:
    """Random projection + bias + tanh; immutable after construction."""

    m: Matrix
    bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", as_matrix(self.m))
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=np.float64))
        if self.bias.shape != (self.m.shape[0],):
            raise ConfigurationError("bias length must equal the projection row count")
        self.m.setflags(write=False)
        self.bias.setflags(write=False)

    @property
    def hidden_dim(self) -> int:
        return self.m.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.m.shape[1]


@dataclass(frozen=True)
class HeadModel:
    """Frozen base head w0 (C×h) on top of a frozen backbone."""

    w0: Matrix
    backbone: FrozenBackbone

    def __post_init__(self):
        object.__setattr__(self, "w0", as_matrix(self.w0))
        if self.w0.shape[1] != self.backbone.hidden_dim:
            raise ConfigurationError("head width must equal the backbone hidden dim")
        self.w0.setflags(write=False)

    @property
    def class_count(self) -> int:
        return self.w0.shape[0]


@dataclass(frozen=True)
class Samples:
    """Labeled rows as arrays: features x (n×d float64) and labels y (n,)
    int64; float labels must be whole numbers. Indexing with an index array
    or a slice gives Samples."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y)
        if y.dtype.kind == "f" and not np.all(np.isfinite(y) & (y == np.trunc(y))):
            raise ConfigurationError("sample labels must be whole numbers")
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(y, dtype=np.int64))
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise ConfigurationError(f"samples need n×d features and n labels, got "
                                     f"{self.x.shape} and {self.y.shape}")

    def __len__(self):
        return self.y.shape[0]

    def __getitem__(self, rows) -> "Samples":
        return Samples(self.x[rows], self.y[rows])


def build_model(feature_dim: int, class_count: int, hidden_dim: int, seed: int) -> HeadModel:
    """Deterministic model construction from a seed."""
    check_types(int, feature_dim=feature_dim, class_count=class_count, hidden_dim=hidden_dim)
    rng = stream(seed, "model")
    m = rng.normal(0.0, 1.0 / np.sqrt(feature_dim), size=(hidden_dim, feature_dim))
    bias = rng.normal(0.0, 0.1, size=hidden_dim)
    w0 = rng.normal(0.0, 0.1 / np.sqrt(hidden_dim), size=(class_count, hidden_dim))
    return HeadModel(w0=w0, backbone=FrozenBackbone(m=m, bias=bias))


@dataclass
class EncodedData:
    """Backbone features cached for fixed Samples."""

    z: Matrix              # n×h
    y: np.ndarray          # (n,)

    def __len__(self):
        return self.z.shape[0]


def encode(model: HeadModel, data: Samples) -> EncodedData:
    """Run the frozen backbone once over all rows of `data`."""
    if len(data) == 0:
        raise PreconditionError("dataset is empty")
    if np.any(data.y < 0) or np.any(data.y >= model.class_count):
        raise PreconditionError("sample label out of range")
    z = np.tanh(data.x @ model.backbone.m.T + model.backbone.bias)
    return EncodedData(z=z, y=data.y)


@dataclass(frozen=True)
class ClientStack:
    """Several clients' encoded rows, updated together by one local_update
    call. ``len()`` counts real rows over all clients, ``sizes`` each
    client's rows.

    The kernel reads the rows in fixed blocks (see below). ``layout`` packs
    them once per block size into one read-only array, with the mask of its
    real rows, and ``gather`` copies a shuffle of them out of it into
    buffers of the caller's own."""

    clients: tuple[EncodedData, ...]

    def __post_init__(self):
        object.__setattr__(self, "clients", tuple(self.clients))
        if not self.clients:
            raise PreconditionError("client stack is empty")
        if not all(isinstance(e, EncodedData) for e in self.clients):
            raise ConfigurationError("a client stack holds EncodedData only")
        object.__setattr__(self, "sizes", np.array([len(e) for e in self.clients]))
        object.__setattr__(self, "_layouts", {})

    def __len__(self):
        return int(self.sizes.sum())

    def __getitem__(self, part) -> "ClientStack":
        """The stack of the clients at `part`, a slice or an index array, in
        that order; it holds the same EncodedData objects, and packs its own
        layouts."""
        return ClientStack([self.clients[i] for i in np.arange(len(self.clients))[part]])

    def buffers(self, block: int):
        """New zero feature and label buffers shaped like the layout's."""
        z, labels, _ = self.layout(block)
        return np.zeros(z.shape), np.zeros(labels.shape, dtype=np.int64)

    def layout(self, block: int):
        """Each client's rows in stored order at the front of its zero-padded
        slot, packed once per block size and read-only: (S, blocks, block, h)
        features, (S, blocks, block) labels and the (S, blocks, block) mask
        of the real rows."""
        if block not in self._layouts:
            shape = (len(self.clients), -(-int(self.sizes.max()) // block), block)
            z, labels = np.zeros(shape + self.clients[0].z.shape[1:]), np.zeros(shape, np.int64)
            for s, e in enumerate(self.clients):
                z.reshape(len(self.clients), -1, z.shape[-1])[s, :len(e)] = e.z
                labels.reshape(len(self.clients), -1)[s, :len(e)] = e.y
            real = (np.arange(labels[0].size) < self.sizes[:, None]).reshape(shape)
            for arr in (z, labels, real):
                arr.setflags(write=False)
            self._layouts[block] = z, labels, real
        return self._layouts[block]

    def gather(self, z, labels, orders):
        """Fill the buffers from ``buffers`` with each client's rows in its
        order (a permutation of its rows) at the front of its slot, in one
        indexed copy from the packed layout, and return them. A padding slot
        copies the layout's padding at the same place, a zero row."""
        packed_z, packed_labels, real = self.layout(labels.shape[2])
        slots = np.arange(labels.size).reshape(labels.shape)
        slots[real] = np.concatenate(orders) + np.repeat(slots[:, 0, 0], self.sizes)
        np.take(packed_z.reshape(-1, z.shape[-1]), slots.ravel(), axis=0,
                out=z.reshape(-1, z.shape[-1]), mode="clip")   # "clip" copies unbuffered
        np.take(packed_labels.ravel(), slots.ravel(), out=labels.reshape(-1), mode="clip")
        return z, labels


def _stack_of_one(model: HeadModel, data) -> ClientStack:
    """One client's Samples, EncodedData or one-client ClientStack as a stack of one."""
    if not isinstance(data, ClientStack):
        return ClientStack((data if isinstance(data, EncodedData) else encode(model, data),))
    if len(data.clients) != 1:
        raise ConfigurationError(f"expected one client's data, got a stack of {len(data.clients)}")
    return data


def forward(model: HeadModel, path: AdapterPath, x) -> np.ndarray:
    """Logits (C,) for one input: (w0 + composed update) @ tanh(M x + bias)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.backbone.feature_dim,):
        raise ConfigurationError(f"input shape {x.shape} does not match feature dim")
    w = compose_path(path, model.w0)
    z = np.tanh(model.backbone.m @ x + model.backbone.bias)
    return w @ z


def dataset_loss(model: HeadModel, path: AdapterPath, data) -> float:
    """Mean cross-entropy of the composed model over the dataset: the
    blocked kernel's loss on a stack of one."""
    return float(_stack_losses(compose_path(path, model.w0)[None], _stack_of_one(model, data))[0])


# --- the blocked SGD kernel ----------------------------------------------------
# A stack of S clients trains together. Each client's rows are laid out in
# fixed blocks of `block` rows, the last one zero-padded: arrays of shape
# (S, blocks, block, .). Every matmul runs over (client, block) slices of a
# fixed shape, and numpy's stacked matmul computes each slice exactly as it
# would alone, so a client's bits never depend on which clients share its
# stack. Zero-padded rows have zero features, so they add exact zeros to the
# weight gradient whatever label they carry. Probabilities are kept
# class-major, (S, blocks, C, block), so the softmax reduces across rows of
# contiguous memory rather than along the short class axis.

_DEFAULT_BATCH = 32
BATCH_MODES = one_of("full", "mini")   # shared with FederationConfig.batch_mode


def _check_penalty_args(frozen_bases, gammas):
    if len(frozen_bases) != len(gammas):
        raise ConfigurationError("frozen_bases and gammas must have equal length")


def _class_probs(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Softmax probabilities (S, K, C, block) of the rows in z (S, K, block,
    h) under each client's head weight w (S, C, h)."""
    logits = w[:, None] @ z.swapaxes(-1, -2)
    logits -= logits.max(axis=-2, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-2, keepdims=True)
    return logits


def _stack_gradient(frozen_w, b, a, z, labels, rows, bases, gammas):
    """Per-client gradient of the mean cross-entropy over the blocks in z,
    plus the weighted orthogonality penalties, with respect to (b, a).

    frozen_w (S, C, h), b (S, C, r), a (S, r, h), z (S, K, block, h),
    labels (S, K, block), rows (S,) real rows in z, bases (S, C, r_f)
    each. Block gradients are summed in block order.
    """
    resid = _class_probs(frozen_w + b @ a, z)   # minus the one-hot labels, below
    slices, classes, block = resid.shape[0] * resid.shape[1], resid.shape[2], resid.shape[3]
    resid.reshape(slices, classes, block)[np.arange(slices)[:, None],
                                          labels.reshape(slices, block), np.arange(block)] -= 1.0
    dw = reduce(np.add, (resid @ z).swapaxes(0, 1)) / rows[:, None, None]
    db = dw @ a.swapaxes(-1, -2)
    da = b.swapaxes(-1, -2) @ dw
    for base, gamma in zip(bases, gammas):
        if gamma != 0.0:
            db = db + gamma * orth_penalty_grad(base, b)
    return db, da


def _stack_losses(w: np.ndarray, data: ClientStack) -> np.ndarray:
    """Mean cross-entropy of each stacked client under its own head weight
    w[s] (S, C, h), over the kernel's fixed blocks. Like the gradient, it sums
    each block, then the blocks in block order, so stack mates change no bit."""
    z, labels, real = data.layout(_DEFAULT_BATCH)
    picked = np.take_along_axis(_class_probs(w, z), labels[:, :, None], axis=-2)[:, :, 0]
    part = np.where(real, -np.log(np.maximum(picked, _PROB_FLOOR)), 0.0).sum(axis=-1)
    return reduce(np.add, part.swapaxes(0, 1)) / data.sizes


def _stack_accuracy(w: np.ndarray, data: ClientStack) -> np.ndarray:
    """Each stacked client's share of rows whose largest logit under its own
    head weight w[s] (S, C, h) is its label; ties pick the lowest class. Hits
    are counted per (client, block) slice, so stack mates change no bit."""
    z, labels, real = data.layout(_DEFAULT_BATCH)
    # row-major logits (S, blocks, block, C): the argmax runs along contiguous classes
    hits = (np.argmax(z @ w[:, None].swapaxes(-1, -2), axis=-1) == labels) & real
    return hits.reshape(len(hits), -1).sum(axis=1) / data.sizes


class KernelInputs(NamedTuple):
    """The blocked kernel's inputs for S stacked clients: each client's frozen
    weight (S, C, h), w0 plus every other tier's update, and the active
    factors b (S, C, r) and a (S, r, h)."""

    frozen: np.ndarray
    b: np.ndarray
    a: np.ndarray


def _stack_inputs(model: HeadModel, paths, active: Tier) -> KernelInputs:
    """The kernel's checked inputs for stacked clients, one path each: the
    frozen weight is w0 plus every other tier's update in tier order."""
    if not isinstance(active, Tier):
        raise ConfigurationError(f"unknown active tier {active!r}")
    adapters = [p.adapter(active) for p in paths]
    if {(ad.p, ad.q, ad.rank) for ad in adapters} != {model.w0.shape + (adapters[0].rank,)}:
        raise ConfigurationError(f"stacked active adapters must share one shape matching "
                                 f"the base weight {model.w0.shape}")
    frozen = [reduce(np.add, (delta(p.adapter(t)) for t in Tier if t is not active), model.w0)
              for p in paths]
    return KernelInputs(np.stack(frozen), np.stack([ad.b for ad in adapters]),
                        np.stack([ad.a for ad in adapters]))


def tier_gradient(model: HeadModel, path: AdapterPath, data, active: Tier,
                  frozen_bases=(), gammas=()) -> tuple[Matrix, Matrix]:
    """Analytic gradient of dataset_loss plus the weighted orthogonality
    penalties, taken with respect to the active adapter's (b, a) only.

    This is local_update's full-batch kernel on a stack of one client. The
    probability clamp in dataset_loss is ignored here; it only binds below
    1e-12 where the loss surface is flat anyway.
    """
    _check_penalty_args(frozen_bases, gammas)
    stack = _stack_of_one(model, data)
    db, da = _stack_gradient(*_stack_inputs(model, [path], active),
                             *stack.layout(_DEFAULT_BATCH)[:2], stack.sizes,
                             [np.asarray(base, dtype=np.float64)[None] for base in frozen_bases],
                             gammas)
    return db[0], da[0]


@dataclass
class SgdConfig:
    """Plain gradient descent settings for one local update."""

    lr: float = ruled(FINITE_POSITIVE)
    epochs: int = ruled(NON_NEGATIVE)
    batch_mode: str = ruled(BATCH_MODES, "full")
    batch_size: int = ruled(POSITIVE, _DEFAULT_BATCH)

    def __post_init__(self):
        check_field_types(self)


def local_update(model: HeadModel, path, data, active: Tier,
                 frozen_bases=(), gammas=(), opt: SgdConfig | None = None,
                 rng=None):
    """Run `opt.epochs` of gradient descent on the active adapter.

    With one AdapterPath, `data` is its client's Samples, EncodedData or
    one-client ClientStack, each `frozen_bases` entry one B factor, `rng` one
    Generator, and a fresh LoraAdapter is returned. With a list of paths,
    `data` is a ClientStack of their clients, each `frozen_bases` entry and
    `rng` hold one item per client, and a list of adapters comes back; the
    input paths and their frozen tiers are left bitwise untouched. With
    KernelInputs, the stage engine's form, `data` and `frozen_bases` are as
    for a list, each entry possibly one (S, C, r_f) array, and the inputs'
    b and a are updated in place and returned. A client's result is bitwise
    the same as when it is updated alone. A step that leaves a factor
    non-finite warns nowhere: the adapters refuse it with ConfigurationError,
    and KernelInputs come back unchecked, for the stage engine's own check
    (federation._check_round). Mini-batch mode needs the rngs for
    the shuffles; a full-batch step sums the gradients of all of a client's
    blocks, a mini-batch step takes one block per client.
    """
    if opt is None:
        raise ConfigurationError("an SgdConfig is required")
    single, packed = isinstance(path, AdapterPath), isinstance(path, KernelInputs)
    if single:
        data = _stack_of_one(model, data)
        path, rng = [path], [rng]
        frozen_bases = [[base] for base in frozen_bases]
    elif not isinstance(data, ClientStack):
        raise ConfigurationError("a list of paths or KernelInputs need a ClientStack")
    frozen_w, b, a = path if packed else _stack_inputs(model, path, active)
    _check_penalty_args(frozen_bases, gammas)
    bases = [np.asarray(entry, dtype=np.float64) for entry in frozen_bases]
    rng = [None] * len(data.clients) if rng is None else rng
    if any(len(x) != len(data.clients) for x in (frozen_w, b, a, rng, *bases)):
        raise ConfigurationError("a client stack needs one path, basis and rng per client")
    mini = opt.batch_mode == "mini"
    if mini and any(r is None for r in rng):
        raise ConfigurationError("mini-batch mode needs an rng for shuffling")
    sizes = data.sizes
    blocks = -(-sizes // opt.batch_size)
    # a step runs over a span of blocks: all of them in full batch, one in mini batch
    spans = [(k, k + 1) for k in range(blocks.max())] if mini else [(0, blocks.max())]
    # full batch reads the stack's cached layout; mini batch gathers each
    # epoch's shuffle into buffers of this call's own
    z, labels = data.buffers(opt.batch_size) if mini else data.layout(opt.batch_size)[:2]
    # a diverging step warns nowhere: the adapters below or the stage engine refuse it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(opt.epochs):
            if mini:
                data.gather(z, labels, [r.permutation(n) for r, n in zip(rng, sizes)])
            for lo, hi in spans:
                # clients with fewer blocks sit out their missing steps
                sel = slice(None) if lo < blocks.min() else np.flatnonzero(blocks > lo)
                rows = np.minimum(sizes[sel] - lo * opt.batch_size, (hi - lo) * opt.batch_size)
                db, da = _stack_gradient(frozen_w[sel], b[sel], a[sel], z[sel, lo:hi],
                                         labels[sel, lo:hi], rows, [base[sel] for base in bases],
                                         gammas)
                b[sel] -= opt.lr * db
                a[sel] -= opt.lr * da
    if packed:   # the stage engine checks its factors itself, with the stage and round
        return b, a
    out = [LoraAdapter(b=bi, a=ai, rank=b.shape[2]) for bi, ai in zip(b, a)]
    return out[0] if single else out


def objective(model: HeadModel, path: AdapterPath, data, active: Tier,
              frozen_bases=(), gammas=()) -> float:
    """dataset_loss plus the active tier's weighted orthogonality penalties."""
    _check_penalty_args(frozen_bases, gammas)
    total = dataset_loss(model, path, data)
    adapter = path.adapter(active)
    for base, gamma in zip(frozen_bases, gammas):
        if gamma != 0.0:
            total += gamma * orth_penalty(base, adapter.b)
    return total


def fd_tier_gradient(model: HeadModel, path: AdapterPath, data, active: Tier,
                     frozen_bases=(), gammas=(), h: float = 1e-5):
    """Central finite differences of the training objective, entry by entry.

    Independent numerical route used to validate tier_gradient.
    """
    adapter = path.adapter(active)

    def perturbed(attr, i, j, step):
        bumped = adapter.copy()
        getattr(bumped, attr)[i, j] += step
        return path.replace(active, bumped)

    grads = []
    for attr in ("b", "a"):
        grad = np.zeros_like(getattr(adapter, attr))
        for i, j in np.ndindex(grad.shape):
            hi = objective(model, perturbed(attr, i, j, +h), data, active, frozen_bases, gammas)
            lo = objective(model, perturbed(attr, i, j, -h), data, active, frozen_bases, gammas)
            grad[i, j] = (hi - lo) / (2.0 * h)
        grads.append(grad)
    return tuple(grads)


def gradient_check(trials: int = 24, seed: int = 0, h: float = 1e-5) -> float:
    """Max relative error of the analytic tier gradient against central finite
    differences over random (tier, penalty, data) configurations."""
    check_types(int, POSITIVE, trials=trials)
    worst = 0.0
    rng = stream(seed, "gradcheck")
    for trial in range(trials):
        c = int(rng.integers(3, 6))
        hid = int(rng.integers(5, 9))
        d = int(rng.integers(3, 6))
        r = int(rng.integers(1, 3))
        n = int(rng.integers(4, 9))
        model = build_model(d, c, hid, seed=int(rng.integers(1_000_000)))
        xs, ys = zip(*[(rng.normal(size=d), rng.integers(c)) for _ in range(n)])
        data = Samples(np.stack(xs), np.array(ys))

        def rand_adapter():
            return LoraAdapter(b=0.3 * rng.normal(size=(c, r)),
                               a=0.3 * rng.normal(size=(r, hid)), rank=r)

        path = AdapterPath(root=rand_adapter(), cluster=rand_adapter(), leaf=rand_adapter())
        active = list(Tier)[trial % 3]
        n_frozen = len(active.earlier)
        frozen = [rng.normal(size=(c, r)) for _ in range(n_frozen)]
        gammas = [float(rng.choice([0.0, 0.5, 2.0])) for _ in range(n_frozen)]

        anal = tier_gradient(model, path, data, active, frozen, gammas)
        num = fd_tier_gradient(model, path, data, active, frozen, gammas, h=h)
        for g_anal, g_num in zip(anal, num):
            scale = max(float(np.max(np.abs(g_num))), 1e-12)
            worst = max(worst, float(np.max(np.abs(g_anal - g_num))) / scale)
    return worst
