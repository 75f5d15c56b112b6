"""Desk-scale predictor: a frozen random-feature backbone feeding one
LoRA-adapted linear head.

The backbone z = tanh(M x + bias) is fixed at construction; all learning is
carried by the composed low-rank update on the head weight (class_count ×
hidden_dim). Cross-entropy loss and plain gradient-descent local updates
live here: one blocked kernel updates a whole stack of clients at once, with
one form of its inputs (KernelInputs: stacked frozen weights, active factors
and the penalty pair, built from AdapterPaths by one builder, _stack_inputs,
for every caller) and one step plan per call over block spans (all blocks in
full batch, one in mini batch), each with its clients, their rows as
float64 and their places, from which a step's operands are built once per
call in full batch and per step in mini batch, in one step loop. The
cross-tier orthogonality penalty holds the active B against the
B factor of each of the path's own tiers before it in the cascade
(Tier.earlier), weighted by the gamma in the same place; _stack_inputs
checks the gammas once and builds the penalty as one product pair, the
penalized tiers' B factors side by side and their transposes scaled by
2 gamma, so a step adds it as two matmuls whatever the tier count.
local_update has one call form, KernelInputs with a ClientStack, whose
factors it updates in place; the unseen client's fine-tune builds its own as
the stage engine does. A step runs in factored form: its logits are the
frozen logits (the frozen weight, w0 plus every other tier's update, applied
to the rows) plus B (A z), and dB and dA are taken through A z and B^T times
the residual, so no C×h weight or weight gradient is formed in a step. The
frozen logits have one rule in both batch modes: they are computed once over
the stack's layout and read by every step. A call takes them as given (the
stage engine computes them once per stage, the unseen fine-tune once per
client) or computes them once itself. A step's softmax stores the
probabilities class-outer, (C, S, blocks, block), so each operation runs
once over the whole stack's classes, and the one-hot labels come off in one
subtract by the flat index of each row's label in that array. A mini-batch
call takes its epochs from one generator, ClientStack.epochs, which shuffles
each client's rows afresh every epoch and gathers them, their labels and
their frozen logits from the packed layout into one buffer triple, so the
call's memory does not grow with its epochs. The analytic tier gradient is
that kernel's gradient on a stack of one, and so is the unseen client's
routing gradient (adaptation.probe_basis: the head gradient, read off dA at
B = I and A = 0).
Every score is the kernel's too: the loss and the argmax accuracy read the
same blocks and the same mask of real rows, which a ClientStack's layout
holds together, so a client scores the same bits alone or in any stack.
The loss has one rule, _label_losses of the rows' label probabilities, and
one function of a layout's logits, _logit_losses: the metrics take
weight-form logits at _DEFAULT_BATCH, the stage engine factored ones at its
own block. A full-batch step applies the same rule to its own normalised
probabilities before the one-hot subtract, so a full-batch local_update
call can return each client's loss at its starting factors (its `losses`
output) with no pass of its own; the stage engine reads each full-batch
round's loss off the next round's first step, and runs _logit_losses once
after a stage's last round, and every round in mini batch. A block longer
than a client's rows only adds padding: local_update takes the batch size
as given, and the stage settings (federation._stage_settings) cap it at the
largest client they may see. The central finite-difference oracle used by tests and the gradcheck
command checks the gradient.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import repeat, starmap
from typing import NamedTuple

import numpy as np

from .errors import (FINITE_POSITIVE, NON_NEGATIVE, POSITIVE, ConfigurationError,
                     PreconditionError, check_field_types, check_types, one_of, ruled)
from .linalg import Matrix, as_matrix
from .lora import AdapterPath, LoraAdapter, Tier, compose_path, delta, orth_penalty
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
    """Deterministic model construction from a seed; every size must be a
    positive integer."""
    check_types(int, POSITIVE, feature_dim=feature_dim, class_count=class_count,
                hidden_dim=hidden_dim)
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
    """Run the frozen backbone once over all rows of `data`, which must be
    as wide as the backbone's input and labeled within the class count."""
    if len(data) == 0:
        raise PreconditionError("dataset is empty")
    if data.x.shape[1] != model.backbone.feature_dim:
        raise PreconditionError(f"rows have {data.x.shape[1]} features, the model takes "
                                f"{model.backbone.feature_dim}")
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
    real rows, and ``epochs`` yields mini-batch epochs of them, each a fresh
    shuffle copied out of that array, with the rows' frozen logits, into one
    buffer triple of its own."""

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

    def epochs(self, rngs, count: int, block: int, logits):
        """Yield `count` mini-batch epochs of the stack at `block`: each a
        (z, labels, logits) triple shaped like the layout's and like
        `logits`, the class-outer (C, S, blocks, block) frozen logits of the
        layout's rows, with every client's rows in a fresh shuffle at the
        front of its slot. Each epoch refills one identity order of the
        layout's slots and shuffles each client's range of real slots with
        rngs[s] (the draws of permutation, epoch after epoch), then copies
        the packed layout and `logits` through it into one buffer triple of
        this generator's own, reused every epoch; a padding slot copies the
        padding at the same place, a zero row and its logits. The order is
        intp, the items Generator.shuffle swaps fastest."""
        packed_z, packed_labels, real = self.layout(block)
        order, width = np.empty(real.size, np.intp), packed_z.shape[-1]
        ranges = [order.reshape(len(real), -1)[s, :n] for s, n in enumerate(self.sizes)]
        z, labels = np.empty(packed_z.shape), np.empty(real.shape, np.int64)
        gathered = np.empty(logits.shape)
        for _ in range(count):
            order[:] = np.arange(order.size)
            for r, slots in zip(rngs, ranges):
                r.shuffle(slots)
            np.take(packed_z.reshape(-1, width), order, axis=0, out=z.reshape(-1, width),
                    mode="clip")   # "clip" copies unbuffered
            np.take(packed_labels.ravel(), order, out=labels.reshape(-1), mode="clip")
            np.take(logits.reshape(len(logits), -1), order, axis=1,
                    out=gathered.reshape(len(logits), -1), mode="clip")
            yield z, labels, gathered


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
        raise PreconditionError(f"input has shape {x.shape}, the model takes "
                                f"{model.backbone.feature_dim} features")
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
# stack. Zero-padded rows have zero features, and so a zero A z, so they add
# exact zeros to both factor gradients whatever label they carry. The
# metrics' score passes (loss, accuracy) form each client's C×h weight; a
# training step and the stage's round loss do not: both add B (A z) to the
# cached frozen logits (_factored_logits). A full-batch call's first step
# also reads each client's loss off its normalised probabilities, before the
# one-hot subtract, by the loss's one rule (_label_losses): the bits of a
# loss pass over the same logits, so a stage needs no pass per full-batch
# round. Probabilities are stored class-outer, (C, S, blocks, block), and
# read through their (S, blocks, C, block) transpose: each slice's logits
# matmul writes into that view, and the softmax's max, exp, sum and divide
# each run once over the classes of the whole (C, S·blocks·block) array.
# Each row's classes are summed in the order a per-slice softmax over
# class-major (S, blocks, C, block) memory sums them (tests/oracles.py), so
# both give the same bits.

_DEFAULT_BATCH = 32
BATCH_MODES = one_of("full", "mini")   # shared with FederationConfig.batch_mode


def _check_gammas(active: Tier, gammas):
    """The penalty weights' one rule: none, or one finite, non-negative real
    per tier in active.earlier, each pairing with that tier's B factor."""
    if not isinstance(active, Tier):
        raise ConfigurationError(f"unknown tier {active!r}")
    if len(gammas) not in (0, len(active.earlier)):
        raise ConfigurationError(f"the {active.value} tier takes no gammas or one per earlier "
                                 f"tier ({len(active.earlier)}); got {len(gammas)}")
    check_types(float, NON_NEGATIVE, **{f"gammas[{i}]": g for i, g in enumerate(gammas)})


def _frozen_logits(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Logits of the rows in z (S, K, block, h) under each client's weight w
    (S, C, h), stored class-outer (C, S, K, block): one stacked matmul, each
    (client, block) slice written into the (S, K, C, block) transpose view."""
    logits = np.empty((w.shape[1], *z.shape[:3]))
    np.matmul(w[:, None], z.swapaxes(-1, -2), out=logits.transpose(1, 2, 0, 3))
    return logits


def _softmax_exps(logits: np.ndarray):
    """Softmax numerators exp(logit - the row's largest) of class-outer
    logits (C, S, K, block), in place, and their per-row sums (S, K, block).

    A sum adds a row's classes in class order, as numpy sums the strided
    class axis of a class-major layout; at block 1 that axis is contiguous
    and numpy sums it pairwise, so a block of one row does too."""
    flat = logits.reshape(len(logits), -1)
    flat -= np.maximum.reduce(flat, axis=0)
    np.exp(flat, out=flat)
    sums = (np.add.reduce(flat, axis=0) if logits.shape[-1] > 1
            else np.add.reduce(flat.T.copy(), axis=1))
    return logits, sums.reshape(logits.shape[1:])


def _label_index(labels: np.ndarray, places=None) -> np.ndarray:
    """The flat index of each row's label in the class-outer (C, S, K, block)
    probabilities of the rows of labels (S, K, block): the label times
    S·K·block, plus the row's own place (places, arange shaped like labels,
    when not given); shaped like labels."""
    places = np.arange(labels.size).reshape(labels.shape) if places is None else places
    return labels * labels.size + places


def _factored_logits(frozen_logits, b, a, z):
    """The class-outer (C, S, K, block) logits frozen_logits + B (A z) of the
    rows in z (S, K, block, h) under the factors b (S, C, r) and a (S, r, h),
    each (client, block) slice's B (A z) written into the (S, K, C, block)
    transpose view, and A z (S, K, r, block), which the gradient reuses."""
    az = a[:, None] @ z.swapaxes(-1, -2)
    logits = np.empty(frozen_logits.shape)
    np.matmul(b[:, None], az, out=logits.transpose(1, 2, 0, 3))
    return np.add(logits, frozen_logits, out=logits), az


def _stack_gradient(frozen_logits, b, a, z, index, rows, penalty_b, penalty_bt, losses=None):
    """Per-client gradient of the mean cross-entropy over the blocks in z,
    plus the weighted orthogonality penalties, with respect to (b, a), in
    factored form: the logits are frozen_logits + B (A z), and
    dB = sum_k resid_k (A z_k)^T / rows, dA = sum_k (B^T resid_k) z_k / rows
    with resid the softmax minus the one-hot labels, so no C×h weight or
    weight gradient is formed. The penalties add
    penalty_b @ (penalty_bt @ B) to dB (KernelInputs).

    frozen_logits (C, S, K, block) from _frozen_logits, b (S, C, r),
    a (S, r, h), z (S, K, block, h), index the flat _label_index of the
    rows' labels, rows (S, 1, 1) real rows in z, and the penalty pair
    (S, C, P) and (S, P, C). Block gradients are summed in block order; one
    block is taken as it is, which is bitwise its sum.

    losses, when given, is an (out, real) pair: out (S,) receives each
    client's mean cross-entropy at (b, a), read off the normalised
    probabilities before the one-hot subtract by _label_losses over the
    real-row mask real (S, K, block), bitwise _logit_losses of these logits.
    """
    logits, az = _factored_logits(frozen_logits, b, a, z)
    exps, sums = _softmax_exps(logits)
    exps /= sums
    if losses is not None:
        out, real = losses
        out[:] = _label_losses(exps.reshape(-1)[index].reshape(real.shape), real, rows.ravel())
    exps.reshape(-1)[index] -= 1.0
    resid = exps.transpose(1, 2, 0, 3)
    if min(resid.shape[-1], b.shape[-1]) == 1:
        # at block 1 or rank 1 numpy takes BLAS matrix-vector products,
        # which sum a strided operand in another order: a contiguous copy
        # keeps a slice's bits free of the stack's size
        resid = resid.copy()
    db, da = resid @ az.swapaxes(-1, -2), (b[:, None].swapaxes(-1, -2) @ resid) @ z
    db, da = ((np.add.reduce(db, axis=1), np.add.reduce(da, axis=1)) if z.shape[1] > 1
              else (db[:, 0], da[:, 0]))   # sequential over the blocks; one is its own sum
    db /= rows
    da /= rows
    if penalty_b.shape[-1]:
        db += penalty_b @ (penalty_bt @ b)
    return db, da


def _label_losses(picked, real, sizes) -> np.ndarray:
    """The package's one cross-entropy rule: each stacked client's mean of
    -log of its rows' label probabilities picked (S, K, block), clamped at
    _PROB_FLOOR, over the real rows of the mask real, of which the clients
    hold sizes. Like the gradient, it sums each block, then the blocks in
    block order, so stack mates and padding blocks change no bit."""
    part = np.where(real, -np.log(np.maximum(picked, _PROB_FLOOR)), 0.0).sum(axis=-1)
    return reduce(np.add, part.swapaxes(0, 1)) / sizes


def _logit_losses(logits, labels, real, sizes) -> np.ndarray:
    """Mean cross-entropy of each stacked client from the class-outer logits
    (C, S, K, block) of a layout's rows, whose labels and real-row mask are
    (S, K, block) and whose clients hold sizes real rows; the softmax runs
    in place on logits. Only each row's label probability, picked by its
    flat index, is normalised, and _label_losses takes the mean. A
    full-batch step reads the same losses off its own probabilities
    (_stack_gradient), so the stage engine calls this once after a stage's
    last round in full batch, and every round in mini batch, where a step
    sees one block."""
    exps, sums = _softmax_exps(logits)
    picked = exps.reshape(-1)[_label_index(labels)]
    picked /= sums
    return _label_losses(picked, real, sizes)


def _stack_losses(w: np.ndarray, data: ClientStack) -> np.ndarray:
    """Mean cross-entropy of each stacked client under its own head weight
    w[s] (S, C, h), over the kernel's blocks of _DEFAULT_BATCH rows."""
    z, labels, real = data.layout(_DEFAULT_BATCH)
    return _logit_losses(_frozen_logits(w, z), labels, real, data.sizes)


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
    weight (S, C, h), w0 plus every other tier's update, the active factors
    b (S, C, r) and a (S, r, h), and the penalty pair: penalty_b (S, C, P),
    the B factors of the tiers in active.earlier whose gamma is not 0, side
    by side in cascade order (so the tiers of a path may differ in rank),
    and penalty_bt (S, P, C), their transposes each scaled by 2 gamma. The
    penalties' gradient is penalty_b @ (penalty_bt @ b); with no penalty,
    P is 0."""

    frozen: np.ndarray
    b: np.ndarray
    a: np.ndarray
    penalty_b: np.ndarray
    penalty_bt: np.ndarray

    def select(self, part) -> "KernelInputs":
        """The inputs of the clients at `part`, a slice (views, which an
        update writes through) or an index array (copies, in that order)."""
        return KernelInputs(*(field[part] for field in self))


def _stack_inputs(model: HeadModel, paths, active: Tier, gammas=()) -> KernelInputs:
    """The kernel's checked inputs for stacked clients, one path each: the
    frozen weight is w0 plus every other tier's update in tier order, and the
    penalty pair holds the B factors of the path's tiers in active.earlier,
    weighted by the gammas in the same place (see _check_gammas, which runs
    here once). It is the one builder of KernelInputs, and so of the
    penalty, from adapters: for tier_gradient, the stage engine's start and
    the unseen client's fine-tune."""
    _check_gammas(active, gammas)
    adapters = [p.adapter(active) for p in paths]
    if {(ad.p, ad.q, ad.rank) for ad in adapters} != {model.w0.shape + (adapters[0].rank,)}:
        raise ConfigurationError(f"stacked active adapters must share one shape matching "
                                 f"the base weight {model.w0.shape}")
    frozen = [reduce(np.add, (delta(p.adapter(t)) for t in Tier if t is not active), model.w0)
              for p in paths]
    kept = [(np.stack([p.adapter(t).b for p in paths]), 2.0 * g)
            for t, g in zip(active.earlier, gammas) if g != 0.0]
    s, c = len(paths), model.w0.shape[0]
    return KernelInputs(np.stack(frozen), np.stack([ad.b for ad in adapters]),
                        np.stack([ad.a for ad in adapters]),
                        np.concatenate([np.empty((s, c, 0)), *(b for b, _ in kept)], axis=2),
                        np.concatenate([np.empty((s, 0, c)),
                                        *(w * b.swapaxes(1, 2) for b, w in kept)], axis=1))


def tier_gradient(model: HeadModel, path: AdapterPath, data, active: Tier,
                  gammas=()) -> tuple[Matrix, Matrix]:
    """Analytic gradient of dataset_loss plus the weighted orthogonality
    penalties, taken with respect to the active adapter's (b, a) only: the
    active B is penalized against the B factor of each of the path's tiers
    in active.earlier, weighted by the gamma in the same place (no gammas,
    no penalty; see _check_gammas).

    This is local_update's full-batch kernel on a stack of one client, its
    frozen logits computed once from the layout. The probability clamp in
    dataset_loss is ignored here; it only binds below 1e-12 where the loss
    surface is flat anyway.
    """
    stack = _stack_of_one(model, data)
    frozen_w, b, a, penalty_b, penalty_bt = _stack_inputs(model, [path], active, gammas)
    z, labels, _ = stack.layout(_DEFAULT_BATCH)
    db, da = _stack_gradient(_frozen_logits(frozen_w, z), b, a, z, _label_index(labels).ravel(),
                             stack.sizes[:, None, None], penalty_b, penalty_bt)
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


def local_update(model: HeadModel, inputs: KernelInputs, data: ClientStack, *,
                 opt: SgdConfig, rng=None, frozen_logits=None, losses=None) -> KernelInputs:
    """Run `opt.epochs` of gradient descent on the active factors of
    `inputs`, KernelInputs built from one path per client by _stack_inputs,
    on `data`, a ClientStack of those clients; `rng` is None or one
    Generator per client. opt, rng, frozen_logits and losses are
    keyword-only, and any other inputs or data are refused with
    ConfigurationError.

    The active B is penalized against the B factor of each of the path's
    tiers in active.earlier, weighted by the gamma in the same place: the
    inputs carry that penalty as their pair, built by _stack_inputs from
    the gammas (no gammas, no penalty; the rule is _check_gammas). The
    inputs' b and a are updated in place and the inputs returned. A client's
    result is bitwise the same as when it is updated alone. A step that
    leaves a factor non-finite warns nowhere: the inputs come back
    unchecked, for the caller's own check: the stage engine's
    (federation._check_round, which the unseen fine-tune runs too).
    Mini-batch mode needs the rngs: it iterates ClientStack.epochs, which
    shuffles each client's rows with its rng epoch by epoch into one buffer
    triple; full batch reads the stack's cached layout every epoch. A
    full-batch step sums the gradients of all of a client's blocks, a
    mini-batch step takes one block per client.

    The call builds one step plan, an entry per block span: its blocks, its
    clients, their rows as float64 (S, 1, 1) and the places of its rows in
    the class-outer probabilities. From an entry and an epoch's rows come a
    step's operands: the views of the factors, frozen logits, rows and
    penalty pair (an index array of clients takes copies, and the stepped
    factors are written back), and the flat index of each row's label
    (_label_index), by which the step subtracts the one-hot labels; a
    one-block span's gradient skips the sum over its one block, which
    would copy it bitwise. Full batch builds them once per call,
    from the cached layout, and mini batch per step, from its epoch's
    shuffle; one step loop runs both. No buffer is kept across calls, and
    none across steps but the mini-batch epochs' one triple and the
    full-batch operands; the first full-batch step writes `losses`, the
    caller's own array, when given.

    `losses`, an (S,) array or None, is the call's one output besides the
    factors: a full-batch call fills it with each client's mean train
    cross-entropy at the call's starting factors, which its first step reads
    off its normalised probabilities (_stack_gradient), bitwise
    _logit_losses of those factors' logits over the layout; the stage engine
    takes each round's loss from the next round's call this way. A
    mini-batch step sees only one block, so losses there, of another length
    or with no step to read them are refused with ConfigurationError.

    A step runs in factored form on the frozen logits (_stack_gradient),
    which have one rule in both batch modes: `frozen_logits` is
    _frozen_logits of the frozen weights over the stack's layout at
    opt.batch_size, class-outer (C, S, blocks, block), computed once by the
    call when None. The stage engine passes each chunk's, computed once per
    stage, and the unseen fine-tune its client's, computed once. Full batch
    reads them as they are, mini batch gathers them with the rows of each
    epoch; an array of another shape is refused with ConfigurationError.
    """
    if not (isinstance(inputs, KernelInputs) and isinstance(data, ClientStack)):
        raise ConfigurationError("local_update takes KernelInputs with a ClientStack")
    frozen_w, b, a, penalty_b, penalty_bt = inputs
    rng = [None] * len(data.clients) if rng is None else rng
    if any(len(x) != len(data.clients) for x in (*inputs, rng)):
        raise ConfigurationError("a client stack needs one row of every input and one rng "
                                 "per client")
    mini = opt.batch_mode == "mini"
    if mini and any(r is None for r in rng):
        raise ConfigurationError("mini-batch mode needs an rng for shuffling")
    if losses is not None and (mini or not opt.epochs or np.shape(losses) != b.shape[:1]):
        raise ConfigurationError(f"losses are read off a full-batch call's first step, one per "
                                 f"client; got {np.shape(losses)} for {len(b)} clients")
    blocks, (z, labels, real) = -(-data.sizes // opt.batch_size), data.layout(opt.batch_size)
    shape = (b.shape[1], *labels.shape)   # class-outer (C, S, blocks, block)
    if frozen_logits is None:
        frozen_logits = _frozen_logits(frozen_w, z)
    elif np.shape(frozen_logits) != shape:
        raise ConfigurationError(f"frozen_logits must be {shape}, got {np.shape(frozen_logits)}")
    # the step plan: a step runs over a span of blocks, all of the layout's
    # shape[2] in full batch, one in mini batch; clients with fewer blocks
    # sit out their missing steps
    plan = []
    for lo, hi in [(k, k + 1) for k in range(shape[2])] if mini else [(0, shape[2])]:
        sel = slice(None) if lo < blocks.min() else np.flatnonzero(blocks > lo)
        rows = np.minimum(data.sizes[sel] - lo * opt.batch_size, (hi - lo) * opt.batch_size)
        places = np.arange(len(rows) * (hi - lo) * opt.batch_size).reshape(len(rows), hi - lo, -1)
        plan.append((lo, hi, sel, rows.astype(np.float64)[:, None, None], places))

    def operands(z, labels, logits):
        """Each plan entry's step operands over one epoch's rows."""
        return ((sel, b[sel], a[sel], logits[:, sel, lo:hi], z[sel, lo:hi],
                 _label_index(labels[sel, lo:hi], places).ravel(), rows, penalty_b[sel],
                 penalty_bt[sel]) for lo, hi, sel, rows, places in plan)

    # full batch reads the stack's cached layout and frozen logits every
    # epoch, so its operands are built once; mini batch a fresh shuffle of both
    epochs = (starmap(operands, data.epochs(rng, opt.epochs, opt.batch_size, frozen_logits))
              if mini else repeat(list(operands(z, labels, frozen_logits)), opt.epochs))
    # the first step starts at the starting factors: it fills losses
    read = None if losses is None else (losses, real)
    # a diverging step warns nowhere: the caller refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        for steps in epochs:
            for sel, step_b, step_a, logits, z, index, rows, pen_b, pen_bt in steps:
                db, da = _stack_gradient(logits, step_b, step_a, z, index, rows, pen_b, pen_bt,
                                         read)
                read = None
                step_b -= np.multiply(db, opt.lr, out=db)
                step_a -= np.multiply(da, opt.lr, out=da)
                if not isinstance(sel, slice):   # a slice's views write through
                    b[sel], a[sel] = step_b, step_a
    return inputs


def objective(model: HeadModel, path: AdapterPath, data, active: Tier, gammas=()) -> float:
    """dataset_loss plus the active tier's weighted orthogonality penalties:
    gamma times orth_penalty against the B factor of the path's tier in the
    same place of active.earlier. It reads those factors off the path itself,
    not through the kernel's _stack_inputs, so the oracle stays independent."""
    _check_gammas(active, gammas)
    total = dataset_loss(model, path, data)
    for tier, gamma in zip(active.earlier, gammas):
        if gamma != 0.0:
            total += gamma * orth_penalty(path.adapter(tier).b, path.adapter(active).b)
    return total


def fd_tier_gradient(model: HeadModel, path: AdapterPath, data, active: Tier, gammas=(), *,
                     h: float = 1e-5):
    """Central finite differences of the training objective, entry by entry,
    with the penalties of tier_gradient (the path's earlier tiers, paired in
    order with gammas); h is keyword-only.

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
            hi = objective(model, perturbed(attr, i, j, +h), data, active, gammas)
            lo = objective(model, perturbed(attr, i, j, -h), data, active, gammas)
            grad[i, j] = (hi - lo) / (2.0 * h)
        grads.append(grad)
    return tuple(grads)


def gradient_check(trials: int = 24, seed: int = 0, h: float = 1e-5) -> float:
    """Max relative error of the analytic tier gradient against central finite
    differences over random (tier, penalty, data) configurations; each tier
    is penalized against the path's own earlier tiers."""
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
        gammas = [float(rng.choice([0.0, 0.5, 2.0])) for _ in active.earlier]

        anal = tier_gradient(model, path, data, active, gammas)
        num = fd_tier_gradient(model, path, data, active, gammas, h=h)
        for g_anal, g_num in zip(anal, num):
            scale = max(float(np.max(np.abs(g_num))), 1e-12)
            worst = max(worst, float(np.max(np.abs(g_anal - g_num))) / scale)
    return worst
