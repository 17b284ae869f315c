"""The distinguishing attacks.

Three basic procedures test candidate secrets against a membership predicate:
the small-set attack checks tentative errors against a look-up table Sigma, the
small-values attack checks them against the centered interval [-q/4, q/4), and
the unbounded variant counts interval hits per candidate.  Each evaluates at a
root alpha of an irreducible divisor y^n - a of f: samples are restricted to
the subring R_{q,0} and candidate values folded through the field trace.  An
F_q root alpha is the case n = 1, a = alpha, where the subring is all of R_q
and the trace is the identity.  The chunked attack turns the three-way basic
verdicts into a vote count whenever single runs are unreliable.  The two
voting attacks return their counts alone: the campaign compares each with
its threshold (campaign._decide).

Every attack is a pure function of (pairs, parameters): it reads M samples
only as the Pairs (a_i(alpha), Tr(b_i(alpha))) that SampleBatch.pairs
evaluates at the root, and takes no point.  One chunk driver runs the
small-set and small-values filter (a basic attack is one chunk), which starts
each chunk from the |Sigma| candidates g = (t_j - sigma) / u_j of its first
sample j with u_j = a_j(alpha) != 0; one sample-major pass over all chunks
keeps exactly the survivor sets of the naive candidate-major loop over F_q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analysis import DEFAULT_TABLE_CAP, quarter_interval, small_set_size
from .rings import generator_powers
from .samplers import Pairs


class AttackError(Exception):
    """Base class for attack failures."""


class NoSamples(AttackError):
    """The sample set is empty."""


class TableTooLarge(AttackError):
    """The Sigma enumeration would exceed the configured cap."""


class InsufficientSamples(AttackError):
    """The chunk size exceeds the number of samples."""


# ---------------------------------------------------------------------------
# verdicts


VERDICT_GUESS = "guess"
VERDICT_NOT_PLWE = "not_plwe"
VERDICT_NOT_ENOUGH = "not_enough_samples"


@dataclass(frozen=True)
class AttackVerdict:
    """Outcome of a basic attack: the full survivor set, classified three ways.

    An empty set means NOT PLWE; a single survivor is the guess; anything
    larger means more samples are needed (the survivors are kept so a caller
    can retry without discarding information).
    """

    survivors: tuple[int, ...]

    @property
    def kind(self) -> str:
        if not self.survivors:
            return VERDICT_NOT_PLWE
        if len(self.survivors) == 1:
            return VERDICT_GUESS
        return VERDICT_NOT_ENOUGH

    @property
    def is_plwe(self) -> bool:
        return self.kind != VERDICT_NOT_PLWE

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.kind}
        if self.kind == VERDICT_GUESS:
            out["guess"] = self.survivors[0]
        elif self.kind == VERDICT_NOT_ENOUGH:
            out["survivors"] = list(self.survivors)
        return out


# ---------------------------------------------------------------------------
# Sigma tables


# a Sigma table build and the chunk driver hold at most max(q, _MAX_PAIRS)
# entries or candidates at a time
_MAX_PAIRS = 2**20

# the unbounded attack's hit grid holds at most max(q - 1, _HIT_GROUP)
# entries and fewer than 2**15 rows at a time: a group fits in a core's L2
# cache, and its column sums of booleans fit in int16
_HIT_GROUP = 2**18


def build_sigma_table_trace(
    a: int, q: int, counts: tuple[int, ...], sigma: float, cap: int = DEFAULT_TABLE_CAP
) -> np.ndarray:
    """The Sigma table at a root of the binomial y^n - a, n = 1 included, as
    the read-only membership mask over F_q of the residues sum_k x_k a^k mod
    q, one class k per entry of counts (analysis.class_counts) and |x_k| <=
    that class's bound in analysis.small_set_size.

    Round k adds x * a^k, |x| <= bound, to every residue reached so far; a
    zero bound adds nothing, and 2*bound+1 >= q offsets in any class reach
    all of F_q at once.  Rounds take their residues in groups, so every
    temporary holds at most max(q, _MAX_PAIRS) entries.
    """
    if not counts or min(counts) < 1:
        raise ValueError("need at least one class, each of length >= 1")
    size = small_set_size(counts, sigma, cap)
    if not size.feasible:
        raise TableTooLarge(f"enumeration of {size.widths} tuples exceeds the cap of {cap}")
    full = 2 * max(bound for _, _, bound in size.classes) + 1 >= q
    mask = np.full(q, full)
    mask[0] = True
    # below F_q, the offsets of each class length whose bound is not 0
    offsets = {} if full else {
        n: np.arange(-b, b + 1, dtype=np.int64) for n, _, b in size.classes if b
    }
    for k, count in enumerate(counts):
        if count in offsets:
            step = max(q, _MAX_PAIRS) // offsets[count].size
            shifts = offsets[count] * pow(a, k, q) % q
            reached = np.flatnonzero(mask)
            for lo in range(0, reached.size, step):
                mask[(reached[lo : lo + step, None] + shifts) % q] = True
    mask.flags.writeable = False
    return mask


# ---------------------------------------------------------------------------
# the survivor filter


def _require_samples(pairs: Pairs) -> None:
    if not len(pairs):
        raise NoSamples("the sample set is empty")


def _reduce(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place, for x >= 0: as x - x // q * q in int32, where
    numpy's division by a scalar beats its %, and with % in int64, which
    beat the division form at the filter's chunked shape."""
    if x.dtype == np.int32:
        x -= x // q * q
    else:
        x %= q
    return x


def _filter(targets: np.ndarray, scales: np.ndarray, member: np.ndarray):
    """(full, chunk, g): g survives chunk c, row c of the (chunks, m) arrays,
    when member[(t_i - u_i * g) mod q] for all its samples i.  full[c] marks
    a chunk without invertible u that keeps all of F_q; the other chunks'
    surviving pairs come in ascending chunk order.

    The residues lam_i * s + off_i of the passes reach at most q(q - 1), so
    they are int32 while q(q - 1) < 2**31 (q <= 46341), 4 bytes per entry of
    a grid under max(q, 2**20) entries, and int64 above."""
    q, m = member.size, scales.shape[1]
    dtype = np.int32 if q * (q - 1) < 2**31 else np.int64
    zero = scales == 0
    alive = ~(zero & ~member[targets]).any(axis=1)  # u = 0 keeps all or nothing
    rows = np.flatnonzero(alive & ~zero.all(axis=1))
    first = zero[rows].argmin(axis=1)
    inv = np.array([pow(u, -1, q) for u in scales[rows, first].tolist()], dtype=np.int64)
    # (row, s in Sigma) stands for g = (t_first - s) * inv, whose tentative
    # error at sample i is off_i + lam_i * s; every sample up to a row's
    # first passes by construction, so passes start after the earliest first
    lam = (scales[rows] * inv[:, None] % q).T
    off = ((targets[rows].T - lam * targets[rows, first]) % q).astype(dtype, copy=False)
    lam = lam.astype(dtype, copy=False)
    sigma = np.flatnonzero(member).astype(dtype, copy=False)
    start = min(first.min(initial=m) + 1, m - 1)
    x = lam[start, :, None] * sigma  # the first pass runs on the whole grid
    x += off[start, :, None]
    _reduce(x, q)
    x = np.flatnonzero(member.take(x))  # frees the grid, a trial's largest array
    pair, s = np.divmod(x, sigma.size)
    s = sigma.take(s)
    for i in range(start + 1, m):
        if not pair.size:
            break
        keep = np.flatnonzero(member.take(_reduce(lam[i].take(pair) * s + off[i].take(pair), q)))
        pair, s = pair.take(keep), s.take(keep)
    g = (targets[rows, first].take(pair) - s) * inv.take(pair) % q
    return alive & zero.all(axis=1), rows.take(pair), g


def _chunks(pairs: Pairs, m0: int, member: np.ndarray):
    """_filter over floor(M/m0) disjoint, index-ordered chunks of m0
    samples, in groups of chunks whose first pass holds at most
    max(q, _MAX_PAIRS) entries; a group's chunk indices count from 0."""
    _require_samples(pairs)
    if m0 < 1:
        raise ValueError("chunk size must be >= 1")
    if m0 > len(pairs):
        raise InsufficientSamples(f"chunk size {m0} exceeds the {len(pairs)} available samples")
    if member.size != pairs.q:
        raise AttackError("membership mask was built for a different modulus")
    used = len(pairs) // m0 * m0
    targets, scales = pairs.targets[:used].reshape(-1, m0), pairs.scales[:used].reshape(-1, m0)
    step = max(1, max(pairs.q, _MAX_PAIRS) // max(1, np.count_nonzero(member)))
    for lo in range(0, len(targets), step):
        yield _filter(targets[lo : lo + step], scales[lo : lo + step], member)


@lru_cache(maxsize=4)
def _log_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only tables of the log-domain hit count, for q < 2**22.

    With G = generator_powers(q), windows[l] is the row G[l : l + q - 1] of
    the doubled table G || G (a sliding-window view) and logs[G[j]] = j
    (logs[0] is unused).  Both are int16 below q = 2**15, where (-q, q) fits
    in int16, and int32 from there on: 4q + 2q bytes, or 8q + 4q bytes,
    about 48 MB at q near 2**22; the int64 G they are narrowed from is
    freed once they are built.
    """
    dtype = np.int16 if q < 2**15 else np.int32
    G = generator_powers(q).astype(dtype)
    logs = np.zeros(q, dtype=dtype)
    logs[G] = np.arange(q - 1, dtype=dtype)
    logs.flags.writeable = False
    return sliding_window_view(np.tile(G, 2), q - 1), logs


# ---------------------------------------------------------------------------
# basic attacks


def small_set_attack(pairs: Pairs, member: np.ndarray) -> AttackVerdict:
    """Keep the candidates g for s(alpha) with b_i(alpha) - a_i(alpha)*g in
    Sigma for every sample, Sigma given by its membership mask mod q: a
    Sigma table, or the quarter interval of the small-values attack.

    At a root of a binomial divisor y^n - a the samples must lie in R_{q,0}
    and g guesses Tr(s(alpha)): the test is (1/n)(Tr(b_i(alpha)) -
    a_i(alpha)*g) in Sigma.  With a_i(alpha) in F_q the trace of the
    tentative error collapses to Tr(b_i(alpha)) - a_i(alpha)*Tr(s(alpha)), so
    looping g over F_q covers all secrets.  All samples form one chunk of
    the survivor filter.
    """
    full, _, g = next(_chunks(pairs, len(pairs), member))
    return AttackVerdict(tuple(range(member.size)) if full[0] else tuple(np.sort(g).tolist()))


# ---------------------------------------------------------------------------
# unbounded attack


def _quarter_hits(pairs: Pairs) -> tuple[int, np.ndarray]:
    """h_0, and the hits of the candidates g = G[j] (G = generator_powers(q))
    in log order: u_i*g = G[l_i + j] for u_i = G[l_i] is row l_i of G || G.
    The quarter residues are the cyclic interval [c, c + w) of
    analysis.quarter_interval; t_i - u_i*g hits iff d = ((t_i - c) mod q) -
    u_i*g, in (-q, q) and held in the tables' dtype, read as unsigned is
    below w, or d < w - q.  A row with u_i = 0 gathers a zeroed row, so it
    hits every g != 0 iff t_i does, and h_0 counts the rows with d < w at
    g = 0; rows come in groups of at most max(q - 1, _HIT_GROUP) entries
    and fewer than 2**15 rows, whose column sums the tables' dtype holds."""
    q = pairs.q
    windows, logs = _log_tables(q)
    unsigned = np.uint16 if logs.dtype == np.int16 else np.uint32
    c, w = quarter_interval(q)
    shifted = ((pairs.targets - c) % q).astype(logs.dtype)
    l = logs.take(pairs.scales)  # logs[0] is unused: u = 0 rows are zeroed
    hits = np.zeros(q - 1, dtype=np.int64)
    rows = min(max(1, _HIT_GROUP // (q - 1)), 2**15 - 1)
    for lo in range(0, l.size, rows):
        d = windows[l[lo : lo + rows]]
        d[pairs.scales[lo : lo + rows] == 0] = 0
        np.subtract(shifted[lo : lo + rows, None], d, out=d)
        hit = d.view(unsigned) < w
        hit |= d < w - q
        hits += hit.sum(axis=0, dtype=logs.dtype)
    return int(np.count_nonzero(shifted < w)), hits


def hit_counts(pairs: Pairs) -> tuple[int, int]:
    """The unbounded attack: count the quarter-interval hits h_g of every
    candidate g, and return the aggregate count C = sum_g h_g and the best
    count max_g h_g.  The campaign says PLWE when max_g h_g reaches
    hit_threshold(ell, q, delta) (campaign._decide).

    C does not decide: a sample with invertible a(alpha) maps g -> t - u*g
    bijectively onto F_q, so it adds exactly quarter_count(q) to C whatever
    distribution produced it.  The true candidate of a PLWE batch hits with
    probability 1/2 + delta per sample, any candidate of a uniform batch
    with quarter_count(q)/q.

    _quarter_hits counts in the log domain with two integer comparisons per
    entry; its cached _log_tables take about 6q bytes below q = 2**15 and
    12q bytes from there up to the limit q < 2**22.
    """
    _require_samples(pairs)
    h0, hits = _quarter_hits(pairs)
    return int(hits.sum()) + h0, max(int(hits.max()), h0)


# ---------------------------------------------------------------------------
# chunked (voting) driver


def extended_attack(pairs: Pairs, m0: int, member: np.ndarray) -> int:
    """The chunked attack's vote count: filter floor(M/M0) disjoint,
    index-ordered chunks of M0 samples with a basic attack's membership
    mask, and count the chunks that keep a survivor (whose verdict is not
    NOT PLWE).  The campaign says PLWE when the count reaches
    extended_threshold (campaign._decide).  At M0 = 1 every sample with
    a(alpha) != 0 votes, so the vote cannot tell PLWE from uniform input.
    """
    return sum(
        int(full.sum()) + np.unique(chunk).size for full, chunk, _ in _chunks(pairs, m0, member)
    )
