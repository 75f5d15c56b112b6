"""One client's local update through local_update's one call form, for tests
that train a single AdapterPath: _stack_inputs builds the path's
KernelInputs, the rows go in as a stack of one, and the stepped factors come
back as a fresh LoraAdapter, which refuses non-finite factors; the path is
left untouched."""

from fedtier.lora import LoraAdapter
from fedtier.model import _stack_inputs, _stack_of_one, local_update


def update_path(model, path, data, active, gammas=(), *, opt, rng=None):
    """The active adapter of `path` after local_update on `data` (Samples,
    EncodedData or a one-client ClientStack), penalized by `gammas` against
    the path's earlier tiers; `rng` is one Generator, or None."""
    inputs = _stack_inputs(model, [path], active, gammas)
    local_update(model, inputs, _stack_of_one(model, data), opt=opt, rng=[rng])
    return LoraAdapter(b=inputs.b[0], a=inputs.a[0], rank=inputs.b.shape[2])
