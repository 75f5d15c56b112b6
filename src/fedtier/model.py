"""Desk-scale predictor: a frozen random-feature backbone feeding one
LoRA-adapted linear head.

The backbone z = tanh(M x + bias) is fixed at construction; all learning is
carried by the composed low-rank update on the head weight (class_count ×
hidden_dim). Cross-entropy loss and plain gradient-descent local updates
live here: one blocked kernel updates a whole stack of clients at once, with
one setup of its inputs and one step loop over block spans (all blocks in
full batch, one in mini batch). The analytic tier gradient is that kernel's
gradient on a stack of one, and every loss is the kernel's loss. The central
finite-difference oracle used by tests and the gradcheck command checks the
gradient.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigurationError, PreconditionError, check_field_types, check_types
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


def _as_encoded(model: HeadModel, data) -> EncodedData:
    return data if isinstance(data, EncodedData) else encode(model, data)


@dataclass(frozen=True)
class ClientStack:
    """Several clients' encoded rows, updated together by one local_update
    call. ``len()`` counts real rows over all clients, ``sizes`` each
    client's rows.

    The kernel reads the rows in fixed blocks (see below). ``layout`` packs
    them once per block size into one read-only array, and ``gather`` copies
    a shuffle of them out of it into buffers of the caller's own."""

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

    def __getitem__(self, part: slice) -> "ClientStack":
        return ClientStack(self.clients[part])

    def buffers(self, block: int):
        """New zero (S, blocks, block, h) feature and (S, blocks, block) label
        buffers, with room for every client's rows in blocks of `block`."""
        shape = (len(self.clients), -(-int(self.sizes.max()) // block), block)
        return np.zeros(shape + self.clients[0].z.shape[1:]), np.zeros(shape, dtype=np.int64)

    def layout(self, block: int):
        """Each client's rows in stored order at the front of its zero-padded
        slot: (S, blocks, block, h) features and (S, blocks, block) labels,
        packed once per block size and read-only."""
        if block not in self._layouts:
            z, labels = self.buffers(block)
            for s, e in enumerate(self.clients):
                z.reshape(len(self.clients), -1, z.shape[-1])[s, :len(e)] = e.z
                labels.reshape(len(self.clients), -1)[s, :len(e)] = e.y
            z.setflags(write=False)
            labels.setflags(write=False)
            self._layouts[block] = z, labels
        return self._layouts[block]

    def gather(self, z, labels, orders):
        """Fill the buffers from ``buffers`` with each client's rows in its
        order (a permutation of its rows) at the front of its slot, in one
        indexed copy from the packed layout, and return them. A padding slot
        copies the layout's padding at the same place, a zero row."""
        packed_z, packed_labels = self.layout(labels.shape[2])
        slots = np.arange(labels.size).reshape(len(self.clients), -1)
        real = np.arange(slots.shape[1]) < self.sizes[:, None]
        slots[real] = np.concatenate(orders) + np.repeat(slots[:, 0], self.sizes)
        np.take(packed_z.reshape(-1, z.shape[-1]), slots.ravel(), axis=0,
                out=z.reshape(-1, z.shape[-1]), mode="clip")   # "clip" copies unbuffered
        np.take(packed_labels.ravel(), slots.ravel(), out=labels.reshape(-1), mode="clip")
        return z, labels


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
    stack = ClientStack((_as_encoded(model, data),))
    return float(_stack_losses(compose_path(path, model.w0)[None], stack)[0])


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
    sizes = data.sizes
    z, labels = data.layout(_DEFAULT_BATCH)
    picked = np.take_along_axis(_class_probs(w, z), labels[:, :, None], axis=-2)[:, :, 0]
    real = np.arange(labels[0].size).reshape(labels.shape[1:]) < sizes[:, None, None]
    part = np.where(real, -np.log(np.maximum(picked, _PROB_FLOOR)), 0.0).sum(axis=-1)
    return reduce(np.add, part.swapaxes(0, 1)) / sizes


def _stack_inputs(model: HeadModel, paths, active: Tier, frozen_bases, gammas, count: int):
    """The kernel's checked inputs for `count` stacked clients, each (S, ., .):
    the frozen weight (w0 plus every other tier's update, in tier order,
    built once per path object, as one group's clients share theirs), the
    active factors b and a, and each penalty entry's per-client B factors."""
    if not isinstance(active, Tier):
        raise ConfigurationError(f"unknown active tier {active!r}")
    _check_penalty_args(frozen_bases, gammas)
    if len(paths) != count or any(len(entry) != count for entry in frozen_bases):
        raise ConfigurationError("a client stack needs one path and one basis per client")
    adapters = [p.adapter(active) for p in paths]
    if {(ad.p, ad.q, ad.rank) for ad in adapters} != {model.w0.shape + (adapters[0].rank,)}:
        raise ConfigurationError(f"stacked active adapters must share one shape matching "
                                 f"the base weight {model.w0.shape}")
    frozen = {}
    for p in paths:
        if id(p) not in frozen:
            frozen[id(p)] = reduce(np.add, (delta(p.adapter(t)) for t in Tier if t is not active),
                                   model.w0)
    return (np.stack([frozen[id(p)] for p in paths]),
            np.stack([ad.b for ad in adapters]), np.stack([ad.a for ad in adapters]),
            [np.stack([np.asarray(base, dtype=np.float64) for base in entry])
             for entry in frozen_bases])


def tier_gradient(model: HeadModel, path: AdapterPath, data, active: Tier,
                  frozen_bases=(), gammas=()) -> tuple[Matrix, Matrix]:
    """Analytic gradient of dataset_loss plus the weighted orthogonality
    penalties, taken with respect to the active adapter's (b, a) only.

    This is local_update's full-batch kernel on a stack of one client. The
    probability clamp in dataset_loss is ignored here; it only binds below
    1e-12 where the loss surface is flat anyway.
    """
    frozen_w, b, a, bases = _stack_inputs(model, [path], active,
                                          [[base] for base in frozen_bases], gammas, 1)
    stack = ClientStack((_as_encoded(model, data),))
    db, da = _stack_gradient(frozen_w, b, a, *stack.layout(_DEFAULT_BATCH), stack.sizes,
                             bases, gammas)
    return db[0], da[0]


@dataclass
class SgdConfig:
    """Plain gradient descent settings for one local update."""

    lr: float
    epochs: int
    batch_mode: str = "full"   # "full" or "mini"
    batch_size: int = _DEFAULT_BATCH

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.lr < math.inf:
            raise ConfigurationError(f"lr must be finite and positive, got {self.lr!r}")
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be non-negative, got {self.epochs!r}")
        if self.batch_mode not in ("full", "mini"):
            raise ConfigurationError(f"batch_mode must be full or mini, got {self.batch_mode!r}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size!r}")


def local_update(model: HeadModel, path, data, active: Tier,
                 frozen_bases=(), gammas=(), opt: SgdConfig | None = None,
                 rng=None):
    """Run `opt.epochs` of gradient descent on the active adapter.

    With one client's data (Samples or EncodedData), `path` is its
    AdapterPath, each `frozen_bases` entry one B factor, `rng` one
    Generator, and a fresh LoraAdapter is returned. With a ClientStack,
    `path`, each `frozen_bases` entry and `rng` hold one item per client and
    a list of adapters comes back; a client's result is bitwise the same as
    when it is updated alone. Input paths and their frozen tiers are left
    bitwise untouched. Mini-batch mode needs the rngs for the shuffles; a
    full-batch step sums the gradients of all of a client's blocks, a
    mini-batch step takes one block per client.
    """
    if opt is None:
        raise ConfigurationError("an SgdConfig is required")
    stacked = isinstance(data, ClientStack)
    if not stacked:
        data = ClientStack((_as_encoded(model, data),))
        path, rng = [path], [rng]
        frozen_bases = [[base] for base in frozen_bases]
    count = len(data.clients)
    frozen_w, b, a, bases = _stack_inputs(model, path, active, frozen_bases, gammas, count)
    rng = [None] * count if rng is None else rng
    if len(rng) != count:
        raise ConfigurationError("a client stack needs one rng per client")
    mini = opt.batch_mode == "mini"
    if mini and any(r is None for r in rng):
        raise ConfigurationError("mini-batch mode needs an rng for shuffling")
    sizes = data.sizes
    blocks = -(-sizes // opt.batch_size)
    # a step runs over a span of blocks: all of them in full batch, one in mini batch
    spans = [(k, k + 1) for k in range(blocks.max())] if mini else [(0, blocks.max())]
    # full batch reads the stack's cached layout; mini batch gathers each
    # epoch's shuffle into buffers of this call's own
    z, labels = data.buffers(opt.batch_size) if mini else data.layout(opt.batch_size)
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
    out = [LoraAdapter(b=b[s], a=a[s], rank=b.shape[2]) for s in range(count)]
    return out if stacked else out[0]


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
    db = np.zeros_like(adapter.b)
    da = np.zeros_like(adapter.a)

    def perturbed(attr, i, j, step):
        bumped = adapter.copy()
        getattr(bumped, attr)[i, j] += step
        return path.replace(active, bumped)

    for i in range(adapter.b.shape[0]):
        for j in range(adapter.b.shape[1]):
            hi = objective(model, perturbed("b", i, j, +h), data, active, frozen_bases, gammas)
            lo = objective(model, perturbed("b", i, j, -h), data, active, frozen_bases, gammas)
            db[i, j] = (hi - lo) / (2.0 * h)
    for i in range(adapter.a.shape[0]):
        for j in range(adapter.a.shape[1]):
            hi = objective(model, perturbed("a", i, j, +h), data, active, frozen_bases, gammas)
            lo = objective(model, perturbed("a", i, j, -h), data, active, frozen_bases, gammas)
            da[i, j] = (hi - lo) / (2.0 * h)
    return db, da


def gradient_check(trials: int = 24, seed: int = 0, h: float = 1e-5) -> float:
    """Max relative error of the analytic tier gradient against central finite
    differences over random (tier, penalty, data) configurations."""
    check_types(int, trials=trials)
    if trials < 1:
        raise ConfigurationError("the gradient check needs at least one trial")
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
