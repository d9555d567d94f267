"""Layered permutations: profiles, detection, enumeration, greedy containment.

A layered permutation is a sum of decreasing blocks (layers); it is uniquely
described by its layer-size profile, an ordered composition of its length.
Layered permutations of length n therefore correspond to the 2^(n-1)
compositions of n, which this module enumerates lazily in lexicographic
order (matching one-line lexicographic order of the realizations), up to
n = ENUMERATION_CAP = 20 (check_layered_length).  The count of the
compositions is the chain engine's (chains.composition_count).
Whether a layered host contains all of them is decided without enumerating
them, by a per-layer reach table (first_missing_profile).
"""

from __future__ import annotations

import dataclasses
import re
from collections.abc import Iterator

from . import chains, kernels
from .chains import composition_count
from .errors import CapExceededError
from .perms import Permutation

# The longest layered enumeration: 2^19 profiles at the cap.
ENUMERATION_CAP = 20


def check_layered_length(n: int) -> None:
    """ValueError unless 0 <= n <= ENUMERATION_CAP, CapExceededError above
    it: the one cap on a layered enumeration's length."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > ENUMERATION_CAP:
        raise CapExceededError(
            f"enumeration of layered length {n} exceeds cap {ENUMERATION_CAP}"
        )


@dataclasses.dataclass(frozen=True)
class LayerProfile:
    """Ordered layer sizes; the empty profile describes the empty permutation."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(self.sizes))
        for s in self.sizes:
            if not isinstance(s, int) or isinstance(s, bool) or s < 1:
                raise ValueError(f"layer sizes must be positive integers, got {s!r}")

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self):
        return iter(self.sizes)

    def __str__(self) -> str:
        return "[" + ",".join(str(s) for s in self.sizes) + "]"


def parse_profile(text: str) -> LayerProfile:
    """Parse the bracketed profile form, e.g. "[3,1,2,1]"."""
    body = text.strip()
    # comma-separated digit runs, spaces allowed around each, or nothing
    match = re.fullmatch(r"\[\s*([0-9]+(?:\s*,\s*[0-9]+)*)?\s*\]", body)
    if match is None:
        raise ValueError(f"not a layer profile: {text!r}")
    inner = match.group(1)
    if inner is None:
        return LayerProfile(())
    return LayerProfile(tuple(int(tok) for tok in inner.split(",")))


def realize_values(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """One-line values of the layered permutation with the given layer sizes,
    unvalidated: each layer is a decreasing run above everything before it.

    >>> realize_values((3, 1, 2, 1))
    (3, 2, 1, 4, 6, 5, 7)
    """
    vals: list[int] = []
    off = 0
    for s in sizes:
        vals.extend(range(off + s, off, -1))
        off += s
    return tuple(vals)


def realize(profile: LayerProfile) -> Permutation:
    """The layered permutation with the given layer sizes.

    >>> str(realize(LayerProfile((3, 1, 2, 1))))
    '3 2 1 4 6 5 7'
    """
    return Permutation(realize_values(profile.sizes))


def layer_profile(perm: Permutation) -> LayerProfile | None:
    """Layer sizes of perm, or None when perm is not layered.

    Scans left to right: when the next unused value is i, the entry at
    position i is the current layer's top t, and positions i..t must hold
    exactly t, t-1, ..., i.
    """
    vals = perm.values
    n = len(vals)
    sizes = []
    i = 1
    while i <= n:
        t = vals[i - 1]
        for offset in range(t - i + 1):
            if vals[i - 1 + offset] != t - offset:
                return None
        sizes.append(t - i + 1)
        i = t + 1
    return LayerProfile(tuple(sizes))


def composition_at_rank(n: int, rank: int) -> LayerProfile:
    """The rank-th composition of n in lexicographic order; a rank outside
    [0, composition_count(n)) raises ValueError."""
    return LayerProfile(chains.composition_at_rank(n, rank))


def enumerate_layered(n: int) -> Iterator[LayerProfile]:
    """All layer profiles of total n, lazily, in lexicographic order.

    n is checked at the call, before any profile is produced
    (check_layered_length); composition_at_rank gives one profile by rank.
    """
    check_layered_length(n)
    return (
        LayerProfile(chains.composition_at_rank(n, rank))
        for rank in range(composition_count(n))
    )


def greedy_layer_indices(
    pattern: LayerProfile, host: LayerProfile
) -> tuple[int, ...] | None:
    """Host layer indices (0-based, strictly increasing) chosen by the greedy
    rule: each pattern layer takes the first remaining host layer big enough.
    None when the pattern does not fit."""
    return kernels.greedy_layer_indices(pattern.sizes, host.sizes)


def first_missing_profile(
    n: int, host: LayerProfile
) -> tuple[int, LayerProfile | None]:
    """The lexicographically first length-n profile that does not fit
    greedily into the host, with the number of profiles up to and including
    it; (2^(n-1), None), or (1, None) at n = 0, when every profile fits.

    Gives what greedy-matching enumerate_layered(n) in order would, in
    O(layers * n) steps plus the host's length, in O(n + layers) memory,
    instead of 2^(n-1) matches.  The host's layers are swept from the last
    to the first; when layer j is reached, last[s] is the first layer at
    index >= j of size >= s (len(host) when none is left), so each layer
    updates the sizes up to its own, at most n of them.  reach[j] is the
    largest t <= n such that every composition of t fits greedily into host
    layers j, j+1, ...; every composition of t' < t sits inside one of t
    (grow its last part), so the set of such t is 0..reach[j].  A
    composition (s, *rest) fits from j iff i = last[s] exists and rest fits
    from i + 1, so t qualifies iff t <= s + reach[i + 1] for every first
    part s <= t.  The host is universal iff reach[0] >= n.

    Otherwise the first miss is found by walking first parts s = 1, 2, ...
    from (j = 0, t = n), with i the first layer at index >= j of size >= s:
    when no such layer is left, every composition starting with the prefix
    and s misses, and the first of them ends in ones; when reach[i + 1] <
    t - s the miss lies among the compositions starting with s, so the walk
    descends into them from j = i + 1; otherwise all 2^(t-s-1) of them (1
    when s = t) fit and are counted.  i only moves forward, as s grows and
    as the walk descends, so the walk is one pass over the host's layers.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    sizes = host.sizes
    layers = len(sizes)
    last = [layers] * (n + 1)
    reach = [0] * (layers + 1)
    for j in range(layers - 1, -1, -1):
        top = min(sizes[j], n)
        last[1 : top + 1] = [j] * top
        # bound is the least s + reach[last[s] + 1] over first parts s <= t,
        # so t + 1 qualifies iff t < bound and some layer holds a part t + 1
        t = 0
        bound = n
        while t < bound:
            i = last[t + 1]
            if i == layers:
                break
            t += 1
            if t + reach[i + 1] < bound:
                bound = t + reach[i + 1]
        reach[j] = t
    if reach[0] >= n:
        return composition_count(n), None
    prefix: list[int] = []
    rank = 0
    t, s, i = n, 1, 0
    while True:
        while i < layers and sizes[i] < s:
            i += 1
        if i == layers:
            return rank + 1, LayerProfile((*prefix, s) + (1,) * (t - s))
        if reach[i + 1] < t - s:
            prefix.append(s)
            t, s, i = t - s, 1, i + 1
        else:
            rank += composition_count(t - s)
            s += 1


def layered_contains(pattern: LayerProfile, host: LayerProfile) -> bool:
    """Containment between layered permutations, decided greedily on profiles.

    Agrees with perms.contains on the realizations: a decreasing pattern
    block must sit inside a single host layer, and consecutive pattern
    layers need strictly later host layers, so matching layer sizes
    greedily is exact.

    >>> layered_contains(LayerProfile((2, 1)), LayerProfile((3, 1, 2, 1)))
    True
    >>> layered_contains(LayerProfile((3, 3)), LayerProfile((3, 1, 2, 1)))
    False
    """
    return kernels.greedy_layer_indices(pattern.sizes, host.sizes) is not None
