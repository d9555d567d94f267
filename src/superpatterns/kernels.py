"""Kernel backend selection.

Takes containment (``lex_min_embedding``) and the two permutation scans
(``scan_all_perms``, ``scan_perm_list``) from the compiled extension
``superpatterns._kernels`` when it is importable, and from its pure-Python
twin ``superpatterns._kernels_py`` otherwise.  It also binds the chain
engine's ``scan_layered`` and ``greedy_layer_indices``, which the library
calls through this module so that a tracer patching it sees every call.
"""

from __future__ import annotations

from . import _kernels_py, chains

try:
    from . import _kernels as _impl  # type: ignore[attr-defined]
except ImportError:
    _impl = _kernels_py

BACKEND: str = _impl.BACKEND

lex_min_embedding = _impl.lex_min_embedding
scan_all_perms = _impl.scan_all_perms
scan_perm_list = _impl.scan_perm_list
greedy_layer_indices = chains.greedy_layer_indices
scan_layered = chains.scan_layered


def contains(pattern, host):
    """True iff the pattern embeds into the host."""
    # _impl, not this module's lex_min_embedding: a tracer that wraps both
    # names would otherwise count each check twice.
    return _impl.lex_min_embedding(pattern, host) is not None
