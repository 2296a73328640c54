"""Skew-product dynamics on cylinder codes times the circle.

Finite-depth cylinders of the two-symbol code space stand in for infinite
sequences.  One step of the skew product drops the leading symbol: a leading
1 keeps the tail and multiplies the angle by n; a leading 0 flips the tail
and multiplies the angle by -d.  Codes whose forward orbit reaches the
all-ones cylinder are unburied; the rest are buried, split into preperiodic
(a later cylinder refines an earlier one) and undetermined-at-this-depth.

After s steps the cylinder of x is x[s:], complemented exactly when
x[s-1] = 0.  So with y = 1x (length k + 1) and the difference word
e[i] = y[i] xor y[i+1] (a bijection of {0,1}^k), the step-s cylinder is
determined by e[s:]: it is all ones iff e[s:] = 0, and the step-s2
cylinder refines the step-s1 one iff e[s2:] occurs in e at s1.  For horizon
h, let L = k - h and let v be the last L letters of e.  A code is unburied
iff v = 0^L, buried preperiodic iff v != 0 also occurs in e at a start in
[0, h - 1], and undetermined otherwise.  census_at_depth counts these
classes in closed form; classify_code still iterates the map, and tests
hold the two to each other.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .record import FrozenRecord, Record


class DepthExhausted(Exception):
    """A step was requested on a depth-1 code."""


class CodeWord(FrozenRecord):
    __slots__ = ("bits",)

    def __init__(self, bits: Tuple[int, ...]):
        if len(bits) < 1 or any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be a nonempty 0/1 sequence")
        object.__setattr__(self, "bits", bits)

    @property
    def depth(self) -> int:
        return len(self.bits)

    @classmethod
    def from_string(cls, s: str) -> "CodeWord":
        return cls(tuple(int(ch) for ch in s))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


class SkewState(Record):
    __slots__ = ("code", "angle")

    def __init__(self, code: CodeWord, angle: float):
        self.code = code
        self.angle = angle % 1.0


class Unburied(FrozenRecord):
    __slots__ = ("hit_time",)

    def __init__(self, hit_time: int):
        object.__setattr__(self, "hit_time", hit_time)


class BuriedPreperiodic(FrozenRecord):
    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: int, period: int):
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", period)


class BuriedWandering(FrozenRecord):
    """Not unburied and no cylinder repeat within the horizon."""

    __slots__ = ()


def code_step(c: CodeWord) -> CodeWord:
    """Base (code-only) map: drop the head; a 0 head flips the tail."""
    if c.depth < 2:
        raise DepthExhausted("cannot step a depth-1 code")
    head, tail = c.bits[0], c.bits[1:]
    if head == 1:
        return CodeWord(tail)
    return CodeWord(tuple(1 - b for b in tail))


def skew_step(s: SkewState, n: int, d: int) -> SkewState:
    """Full skew step: code_step on the code, z**n or z**(-d) on the angle."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    head = s.code.bits[0]
    new_code = code_step(s.code)
    if head == 1:
        return SkewState(new_code, (n * s.angle) % 1.0)
    return SkewState(new_code, (-d * s.angle) % 1.0)


def classify_code(c: CodeWord, horizon: int) -> object:
    """Classify one cylinder by iterating the base map up to horizon steps.

    Unburied(s) at the first s with an all-ones cylinder; otherwise
    BuriedPreperiodic(s1, s2-s1) for the first pair s1 < s2 (ordered by s2,
    then s1) where the step-s2 cylinder equals the step-s1 cylinder
    truncated; otherwise BuriedWandering.
    """
    if horizon < 0 or horizon > c.depth - 1:
        raise ValueError("need 0 <= horizon <= depth - 1")
    traj = [c]
    for _ in range(horizon):
        traj.append(code_step(traj[-1]))
    for s, w in enumerate(traj):
        if all(w.bits):
            return Unburied(s)
    for s2 in range(1, horizon + 1):
        tail = traj[s2].bits
        for s1 in range(s2):
            if traj[s1].bits[:len(tail)] == tail:
                return BuriedPreperiodic(s1, s2 - s1)
    return BuriedWandering()


class SkewCensus(Record):
    __slots__ = ("unburied", "buried_preperiodic", "undetermined")

    def __init__(self, unburied: int, buried_preperiodic: int, undetermined: int):
        self.unburied, self.buried_preperiodic, self.undetermined = unburied, buried_preperiodic, undetermined

    @property
    def total(self) -> int:
        return self.unburied + self.buried_preperiodic + self.undetermined


def census_at_depth(k: int, horizon: int) -> SkewCensus:
    """Count the census of all 2**k depth-k codes without enumerating them.

    Same counts as classify_code on every code (precedence included), from
    the reformulation in the module docstring: with L = k - h, a code is
    unburied iff the last L letters v of e are 0, and buried preperiodic iff
    v != 0 also occurs in e at a start before h.  Counts always sum to 2**k.
    """
    if not (1 <= k <= 20):
        raise ValueError("need 1 <= k <= 20")
    if horizon < 0 or horizon > k - 1:
        raise ValueError("need 0 <= horizon <= k - 1")
    h, L = horizon, k - horizon
    total = 1 << k
    unburied = 1 << h
    # The period argument needs L >= h - 1; below that, L < k / 2 and the
    # at most 2**9 patterns v are few enough to group by autocorrelation.
    if L >= h - 1:
        preperiodic = _periodic_tail_count(h, L)
    else:
        preperiodic = total - unburied - _first_occurrence_count(h, L)
    return SkewCensus(
        unburied=unburied,
        buried_preperiodic=preperiodic,
        undetermined=total - unburied - preperiodic,
    )


def _periodic_tail_count(h: int, L: int) -> int:
    """Words e = w v (|w| = h, |v| = L >= h - 1, v != 0) where v recurs before h.

    v recurs at h - p iff the tail of e of length L + p has period p.  As
    L >= h - 1, Fine and Wilf make the least such p divide every other one,
    and it is least iff the tail's first p letters form a primitive word;
    the first h - p letters of e are free.  The words with v = 0 that this
    counts are those with w ending in 0, plus 0^L 1 0^L when L = h - 1.
    """
    if h == 0:
        return 0
    primitive = [0] * (h + 1)  # 2^p = sum of primitive(d) over d | p
    for p in range(1, h + 1):
        primitive[p] = (1 << p) - sum(primitive[d] for d in range(1, p) if p % d == 0)
    periodic = sum(primitive[p] << (h - p) for p in range(1, h + 1))
    return periodic - (1 << (h - 1)) - int(L == h - 1)


def _first_occurrence_count(h: int, L: int) -> int:
    """Words e = w v (|w| = h, |v| = L, v != 0) in which v occurs only at h.

    For one v with autocorrelation polynomial c(z), their generating
    function over |e| is z^L / (z^L + (1 - 2z) c(z)) (Guibas and Odlyzko,
    JCTA 30, 1981), so the count depends on v only through c and is the
    z^h coefficient of 1 / (z^L + (1 - 2z) c(z)).
    """
    population: Dict[int, int] = {}
    for v in range(1, 1 << L):
        corr = 0  # bit i set iff v has period i
        for i in range(L):
            if v >> i == v & ((1 << (L - i)) - 1):
                corr |= 1 << i
        population[corr] = population.get(corr, 0) + 1
    count = 0
    for corr, n_words in population.items():
        c = [(corr >> i) & 1 for i in range(L)] + [0]
        den = [c[0]] + [c[j] - 2 * c[j - 1] for j in range(1, L + 1)]
        den[L] += 1
        inv = [1]  # power series of 1 / den, den[0] = 1
        for n in range(1, h + 1):
            inv.append(-sum(den[j] * inv[n - j] for j in range(1, min(n, L) + 1)))
        count += n_words * inv[h]
    return count


class CodeSet(int):
    """A set of depth-k codes as an int bitmask: bit x is set iff x is in it."""

    def __contains__(self, x: int) -> bool:
        return (self >> x) & 1 == 1

    def __len__(self) -> int:
        return self.bit_count()


def unburied_oracle(k: int, horizon: int) -> CodeSet:
    """Independent oracle: enumerate preimages of the all-ones cylinder.

    The 1-branch preimage of a cylinder w is 1w; the 0-branch preimage is
    0 flip(w).  Built by recursion on depth, never calling the forward map.
    On the bitmask, prepending 1 shifts the inner set up by 2**(k-1) codes,
    and 0 flip(w) = 2**(k-1) - 1 - w reverses its 2**(k-1) bits, so no step
    touches a single code.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    full = (1 << k) - 1
    out = 1 << full
    if horizon <= 0 or k == 1:
        return CodeSet(out)
    inner = unburied_oracle(k - 1, horizon - 1)
    high = 1 << (k - 1)
    out |= inner << high  # prepend 1
    out |= _reverse_bits(inner, high)  # prepend 0 to the flipped word
    return CodeSet(out)


_BYTE_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reverse_bits(x: int, width: int) -> int:
    """Bit i of the result is bit width - 1 - i of x (x < 2**width)."""
    n = (width + 7) // 8
    flipped = x.to_bytes(n, "little").translate(_BYTE_REVERSED)
    return int.from_bytes(flipped, "big") >> (8 * n - width)
