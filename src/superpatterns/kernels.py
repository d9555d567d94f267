"""Kernel backend selection.

Takes the hot loops from the compiled extension ``superpatterns._kernels``
when it is importable, and from the pure-Python twin otherwise.
``permutation_at_rank`` always comes from the twin: the compiled scans unrank
their own start, and a compiled copy was slower than the pure one.

``layered_table(profiles)`` is what a search passes to ``scan_layered`` as
its patterns, once for all its lengths.  On the pure backend it is a
``LayeredTable``, which keeps the scan's dead states and proved family
bounds from one length to the next; the compiled scan takes the plain
profile tuple and keeps nothing between calls.
"""

from __future__ import annotations

from . import _kernels_py

try:
    from . import _kernels as _impl  # type: ignore[attr-defined]
except ImportError:
    _impl = _kernels_py

BACKEND: str = _impl.BACKEND

lex_min_embedding = _impl.lex_min_embedding
greedy_layer_indices = _impl.greedy_layer_indices
composition_at_rank = _impl.composition_at_rank
scan_layered = _impl.scan_layered
scan_all_perms = _impl.scan_all_perms
scan_perm_list = _impl.scan_perm_list
permutation_at_rank = _kernels_py.permutation_at_rank
layered_table = _kernels_py.LayeredTable if _impl is _kernels_py else tuple


def contains(pattern, host):
    """True iff the pattern embeds into the host."""
    # _impl, not this module's lex_min_embedding: a tracer that wraps both
    # names would otherwise count each check twice.
    return _impl.lex_min_embedding(pattern, host) is not None
