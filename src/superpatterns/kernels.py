"""Kernel backend selection.

Takes containment (``lex_min_embedding``) and the two permutation scans
(``scan_all_perms``, ``scan_perm_list``) from the compiled extension
``superpatterns._kernels`` when it is importable, and from the pure-Python
twin otherwise.  Everything else always comes from the twin:
``greedy_layer_indices`` and ``composition_at_rank``, which no search runs in
bulk; ``permutation_at_rank``, since the compiled scans unrank their own
start; and ``scan_layered``, the search over threshold chains of pattern
suffixes with one ``LayeredTable`` for all the lengths of a search.  The
public modules import the composition count and L(n) from the twin itself.
"""

from __future__ import annotations

from . import _kernels_py

try:
    from . import _kernels as _impl  # type: ignore[attr-defined]
except ImportError:
    _impl = _kernels_py

BACKEND: str = _impl.BACKEND

lex_min_embedding = _impl.lex_min_embedding
scan_all_perms = _impl.scan_all_perms
scan_perm_list = _impl.scan_perm_list
greedy_layer_indices = _kernels_py.greedy_layer_indices
composition_at_rank = _kernels_py.composition_at_rank
permutation_at_rank = _kernels_py.permutation_at_rank
scan_layered = _kernels_py.scan_layered


def contains(pattern, host):
    """True iff the pattern embeds into the host."""
    # _impl, not this module's lex_min_embedding: a tracer that wraps both
    # names would otherwise count each check twice.
    return _impl.lex_min_embedding(pattern, host) is not None
