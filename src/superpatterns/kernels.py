"""Kernel backend selection.

Takes the hot loops from the compiled extension ``superpatterns._kernels``
when it is importable, and from the pure-Python twin otherwise.
``permutation_at_rank`` always comes from the twin: the compiled scans unrank
their own start, and a compiled copy was slower than the pure one.
``scan_layered`` does too: the twin's search over sets of pattern suffixes,
with one ``LayeredTable`` for all the lengths of a search, is the only
layered scan, and the extension defines none.
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
scan_all_perms = _impl.scan_all_perms
scan_perm_list = _impl.scan_perm_list
scan_layered = _kernels_py.scan_layered
permutation_at_rank = _kernels_py.permutation_at_rank


def contains(pattern, host):
    """True iff the pattern embeds into the host."""
    # _impl, not this module's lex_min_embedding: a tracer that wraps both
    # names would otherwise count each check twice.
    return _impl.lex_min_embedding(pattern, host) is not None
