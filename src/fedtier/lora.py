"""Low-rank adapters, root/cluster/leaf path composition, and the cross-tier
orthogonality penalty with its analytic gradient.

An adapter is a factor pair (b, a) with b of shape p×r and a of shape r×q;
its weight update is the product b @ a. A client's effective update composes
one adapter per tier along its root -> cluster -> leaf route.
"""

from dataclasses import dataclass, replace as replace_fields
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .linalg import Matrix, as_matrix


# Scale of a fresh adapter's A factor, in units of 1/sqrt(q).
INIT_A_SCALE = 0.01


class Tier(Enum):
    ROOT = "root"
    CLUSTER = "cluster"
    LEAF = "leaf"

    @property
    def earlier(self) -> list["Tier"]:
        """The tiers before this one in the cascade, frozen and penalized while it trains."""
        return list(_CASCADE[:_CASCADE.index(self)])


_CASCADE = tuple(Tier)   # iterating an Enum costs microseconds; the kernel reads this per call


@dataclass
class LoraAdapter:
    """One (b, a, rank) factor pair at a tier."""

    b: Matrix
    a: Matrix
    rank: int

    def __post_init__(self):
        self.b = as_matrix(self.b)
        self.a = as_matrix(self.a)
        if self.rank < 1:
            raise ConfigurationError("adapter rank must be positive")
        if self.b.shape[1] != self.rank or self.a.shape[0] != self.rank:
            raise ConfigurationError(
                f"factor shapes {self.b.shape}, {self.a.shape} do not match rank {self.rank}"
            )
        if self.rank > min(self.b.shape[0], self.a.shape[1]):
            raise ConfigurationError("adapter rank exceeds min(p, q)")

    @property
    def p(self) -> int:
        return self.b.shape[0]

    @property
    def q(self) -> int:
        return self.a.shape[1]

    def copy(self) -> "LoraAdapter":
        return LoraAdapter(b=self.b.copy(), a=self.a.copy(), rank=self.rank)


def zero_adapter(p: int, q: int, rank: int) -> LoraAdapter:
    return LoraAdapter(b=np.zeros((p, rank)), a=np.zeros((rank, q)), rank=rank)


def init_adapter(p: int, q: int, rank: int, rng: np.random.Generator) -> LoraAdapter:
    """Stage-start initialization: b = 0 so the update starts at exactly zero,
    a drawn Gaussian of standard deviation INIT_A_SCALE/sqrt(q) so the first
    b-gradient is nonzero."""
    a = rng.normal(0.0, INIT_A_SCALE / np.sqrt(q), size=(rank, q))
    return LoraAdapter(b=np.zeros((p, rank)), a=a, rank=rank)


@dataclass
class AdapterPath:
    """A client's root -> cluster -> leaf adapter composition."""

    root: LoraAdapter
    cluster: LoraAdapter
    leaf: LoraAdapter

    def __post_init__(self):
        dims = {(ad.p, ad.q) for ad in (self.root, self.cluster, self.leaf)}
        if len(dims) != 1:
            raise ConfigurationError(f"path adapters disagree on dimensions: {dims}")

    def adapter(self, tier: Tier) -> LoraAdapter:
        if not isinstance(tier, Tier):
            raise ConfigurationError(f"unknown tier {tier!r}")
        return getattr(self, tier.value)

    def replace(self, tier: Tier, adapter: LoraAdapter) -> "AdapterPath":
        self.adapter(tier)   # rejects a non-Tier
        return replace_fields(self, **{tier.value: adapter})


def delta(adapter: LoraAdapter) -> Matrix:
    """The adapter's weight update b @ a (p×q, rank at most r)."""
    return adapter.b @ adapter.a


def compose_path(path: AdapterPath, w0: Matrix) -> Matrix:
    """Effective weight w0 + root update + cluster update + leaf update."""
    w0 = as_matrix(w0)
    if w0.shape != (path.root.p, path.root.q):
        raise ConfigurationError(
            f"base weight {w0.shape} does not match path dimensions "
            f"({path.root.p}, {path.root.q})"
        )
    return w0 + delta(path.root) + delta(path.cluster) + delta(path.leaf)


def orth_penalty(b_frozen: Matrix, b_active: Matrix) -> float:
    """||b_frozen.T @ b_active||_F^2: zero iff the active columns are
    orthogonal to the frozen column space (for full-column-rank b_frozen)."""
    cross = np.asarray(b_frozen).T @ np.asarray(b_active)
    return float(np.sum(cross * cross))


def orth_penalty_grad(b_frozen: Matrix, b_active: Matrix) -> Matrix:
    """Gradient of orth_penalty with respect to b_active: 2 Bf Bf^T Ba.
    Stacks of factor pairs (leading axes) give a stack of gradients."""
    b_frozen = np.asarray(b_frozen)
    return 2.0 * (b_frozen @ (b_frozen.swapaxes(-1, -2) @ np.asarray(b_active)))


# --- checkpoint text formats -------------------------------------------------
# Adapter dump: line 1 is "p q rank"; then p lines of r entries (rows of b),
# then rank lines of q entries (rows of a). Entries use %.17g, which
# round-trips float64 exactly. Matrix dump: "rows cols" then the rows.


def _fmt_row(row) -> str:
    return " ".join("%.17g" % x for x in row)


def dump_adapter(adapter: LoraAdapter) -> str:
    lines = [f"{adapter.p} {adapter.q} {adapter.rank}"]
    lines += [_fmt_row(r) for r in adapter.b]
    lines += [_fmt_row(r) for r in adapter.a]
    return "\n".join(lines) + "\n"


def _parse_dump(text: str, what: str, header_len: int):
    """Split a dump into its non-negative integer header and its float rows,
    raising ConfigurationError on anything malformed."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ConfigurationError(f"{what} dump is empty")
    try:
        header = [int(x) for x in lines[0].split()]
        rows = [[float(x) for x in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise ConfigurationError(f"{what} dump is malformed: {exc}") from None
    if len(header) != header_len or min(header) < 0:
        raise ConfigurationError(
            f"{what} dump header must be {header_len} non-negative integers")
    return header, rows


def _block(rows, cols: int, what: str) -> Matrix:
    """Rows of equal length `cols` as a float64 matrix."""
    if any(len(r) != cols for r in rows):
        raise ConfigurationError(f"{what} dump has a row of the wrong length")
    return np.array(rows, dtype=np.float64).reshape(len(rows), cols)


def load_adapter(text: str) -> LoraAdapter:
    (p, q, rank), rows = _parse_dump(text, "adapter", 3)
    if len(rows) != p + rank:
        raise ConfigurationError("adapter dump has the wrong number of rows")
    return LoraAdapter(b=_block(rows[:p], rank, "adapter"),
                       a=_block(rows[p:], q, "adapter"), rank=rank)


def save_adapter(adapter: LoraAdapter, path: str | Path):
    Path(path).write_text(dump_adapter(adapter), encoding="ascii")


def read_adapter(path: str | Path) -> LoraAdapter:
    return load_adapter(Path(path).read_text(encoding="ascii"))


def dump_matrix(m: Matrix) -> str:
    m = as_matrix(m)
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    lines += [_fmt_row(r) for r in m]
    return "\n".join(lines) + "\n"


def load_matrix(text: str) -> Matrix:
    (rows, cols), body = _parse_dump(text, "matrix", 2)
    if len(body) != rows:
        raise ConfigurationError("matrix dump has the wrong number of rows")
    return as_matrix(_block(body, cols, "matrix"))
