"""Desk-scale predictor: a frozen random-feature backbone feeding one
LoRA-adapted linear head.

The backbone z = tanh(M x + bias) is fixed at construction; all learning is
carried by the composed low-rank update on the head weight (class_count ×
hidden_dim). Cross-entropy loss, analytic gradients for the active tier, and
plain gradient-descent local updates live here, together with the central
finite-difference oracle used by tests and the gradcheck command.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .linalg import Matrix, as_matrix
from .lora import AdapterPath, LoraAdapter, Tier, compose_path, orth_penalty, orth_penalty_grad

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


@dataclass
class Sample:
    x: np.ndarray
    y: int


def build_model(feature_dim: int, class_count: int, hidden_dim: int, seed: int) -> HeadModel:
    """Deterministic model construction from a seed."""
    rng = np.random.default_rng([seed, 9001])
    m = rng.normal(0.0, 1.0 / np.sqrt(feature_dim), size=(hidden_dim, feature_dim))
    bias = rng.normal(0.0, 0.1, size=hidden_dim)
    w0 = rng.normal(0.0, 0.1 / np.sqrt(hidden_dim), size=(class_count, hidden_dim))
    return HeadModel(w0=w0, backbone=FrozenBackbone(m=m, bias=bias))


@dataclass
class EncodedData:
    """Backbone features cached for a fixed sample list."""

    z: Matrix              # n×h
    y: np.ndarray          # (n,)
    onehot: Matrix = field(repr=False, default=None)

    def __len__(self):
        return self.z.shape[0]


def encode(model: HeadModel, data: list[Sample]) -> EncodedData:
    """Run the frozen backbone once over a sample list."""
    if len(data) == 0:
        raise PreconditionError("dataset is empty")
    x = np.stack([np.asarray(s.x, dtype=np.float64) for s in data])
    y = np.array([s.y for s in data], dtype=np.int64)
    c = model.class_count
    if np.any(y < 0) or np.any(y >= c):
        raise PreconditionError("sample label out of range")
    z = np.tanh(x @ model.backbone.m.T + model.backbone.bias)
    onehot = np.zeros((len(data), c))
    onehot[np.arange(len(data)), y] = 1.0
    return EncodedData(z=z, y=y, onehot=onehot)


def _as_encoded(model: HeadModel, data) -> EncodedData:
    return data if isinstance(data, EncodedData) else encode(model, data)


def forward(model: HeadModel, path: AdapterPath, x) -> np.ndarray:
    """Logits (C,) for one input: (w0 + composed update) @ tanh(M x + bias)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.backbone.feature_dim,):
        raise ConfigurationError(f"input shape {x.shape} does not match feature dim")
    w = compose_path(path, model.w0)
    z = np.tanh(model.backbone.m @ x + model.backbone.bias)
    return w @ z


def _softmax(logits: Matrix) -> Matrix:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _loss_for_weight(w: Matrix, enc: EncodedData) -> float:
    logits = enc.z @ w.T
    probs = _softmax(logits)
    picked = probs[np.arange(len(enc)), enc.y]
    return float(np.mean(-np.log(np.maximum(picked, _PROB_FLOOR))))


def dataset_loss(model: HeadModel, path: AdapterPath, data) -> float:
    """Mean cross-entropy of the composed model over the dataset."""
    enc = _as_encoded(model, data)
    return _loss_for_weight(compose_path(path, model.w0), enc)


def _weight_gradient(w: Matrix, enc: EncodedData) -> Matrix:
    """d(mean cross-entropy)/dW = (softmax - onehot)^T Z / n."""
    logits = enc.z @ w.T
    probs = _softmax(logits)
    return (probs - enc.onehot).T @ enc.z / len(enc)


def _check_penalty_args(frozen_bases, gammas):
    if len(frozen_bases) != len(gammas):
        raise ConfigurationError("frozen_bases and gammas must have equal length")


def tier_gradient(model: HeadModel, path: AdapterPath, data, active: Tier,
                  frozen_bases=(), gammas=()) -> tuple[Matrix, Matrix]:
    """Analytic gradient of dataset_loss plus the weighted orthogonality
    penalties, taken with respect to the active adapter's (b, a) only.

    The probability clamp in dataset_loss is ignored here; it only binds below
    1e-12 where the loss surface is flat anyway.
    """
    if not isinstance(active, Tier):
        raise ConfigurationError(f"unknown active tier {active!r}")
    _check_penalty_args(frozen_bases, gammas)
    enc = _as_encoded(model, data)
    w = compose_path(path, model.w0)
    dw = _weight_gradient(w, enc)
    adapter = path.adapter(active)
    db = dw @ adapter.a.T
    da = adapter.b.T @ dw
    for base, gamma in zip(frozen_bases, gammas):
        if gamma != 0.0:
            db = db + gamma * orth_penalty_grad(base, adapter.b)
    return db, da


@dataclass
class SgdConfig:
    """Plain gradient descent settings for one local update."""

    lr: float
    epochs: int
    batch_mode: str = "full"   # "full" or "mini"
    batch_size: int = 32

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ConfigurationError("learning rate must be finite and positive")
        if self.epochs < 0:
            raise ConfigurationError("epochs must be non-negative")
        if self.batch_mode not in ("full", "mini"):
            raise ConfigurationError(f"unknown batch mode {self.batch_mode!r}")
        if self.batch_size < 1:
            raise ConfigurationError("batch size must be positive")


def local_update(model: HeadModel, path: AdapterPath, data, active: Tier,
                 frozen_bases=(), gammas=(), opt: SgdConfig | None = None,
                 rng: np.random.Generator | None = None) -> LoraAdapter:
    """Run `opt.epochs` of gradient descent on the active adapter.

    Returns a fresh adapter; the input path and its frozen tiers are left
    bitwise untouched. Mini-batch mode requires an rng for the shuffles.
    """
    if opt is None:
        raise ConfigurationError("an SgdConfig is required")
    if opt.batch_mode == "mini" and rng is None:
        raise ConfigurationError("mini-batch mode needs an rng for shuffling")
    _check_penalty_args(frozen_bases, gammas)
    enc = _as_encoded(model, data)
    work = path.adapter(active).copy()
    current = path.replace(active, work)
    for _ in range(opt.epochs):
        if opt.batch_mode == "full":
            db, da = tier_gradient(model, current, enc, active, frozen_bases, gammas)
            work.b -= opt.lr * db
            work.a -= opt.lr * da
        else:
            order = rng.permutation(len(enc))
            for start in range(0, len(enc), opt.batch_size):
                idx = order[start:start + opt.batch_size]
                batch = EncodedData(z=enc.z[idx], y=enc.y[idx], onehot=enc.onehot[idx])
                db, da = tier_gradient(model, current, batch, active, frozen_bases, gammas)
                work.b -= opt.lr * db
                work.a -= opt.lr * da
    return work


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
    worst = 0.0
    rng = np.random.default_rng([seed, 4242])
    tiers = [Tier.ROOT, Tier.CLUSTER, Tier.LEAF]
    for trial in range(trials):
        c = int(rng.integers(3, 6))
        hid = int(rng.integers(5, 9))
        d = int(rng.integers(3, 6))
        r = int(rng.integers(1, 3))
        n = int(rng.integers(4, 9))
        model = build_model(d, c, hid, seed=int(rng.integers(1_000_000)))
        data = [Sample(x=rng.normal(size=d), y=int(rng.integers(c))) for _ in range(n)]

        def rand_adapter():
            return LoraAdapter(b=0.3 * rng.normal(size=(c, r)),
                               a=0.3 * rng.normal(size=(r, hid)), rank=r)

        path = AdapterPath(root=rand_adapter(), cluster=rand_adapter(), leaf=rand_adapter())
        active = tiers[trial % 3]
        n_frozen = {Tier.ROOT: 0, Tier.CLUSTER: 1, Tier.LEAF: 2}[active]
        frozen = [rng.normal(size=(c, r)) for _ in range(n_frozen)]
        gammas = [float(rng.choice([0.0, 0.5, 2.0])) for _ in range(n_frozen)]

        anal = tier_gradient(model, path, data, active, frozen, gammas)
        num = fd_tier_gradient(model, path, data, active, frozen, gammas, h=h)
        for g_anal, g_num in zip(anal, num):
            scale = max(float(np.max(np.abs(g_num))), 1e-12)
            worst = max(worst, float(np.max(np.abs(g_anal - g_num))) / scale)
    return worst
