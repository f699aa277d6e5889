"""MeZO/SPSA zeroth-order gradient estimation with seed-regenerated noise.

The estimator perturbs the flat parameter vector in place with Gaussian
directions that are never materialized at full length: noise streams come
from a counter-based generator (Philox) keyed by (seed, stream index) and are
replayed chunk by chunk whenever they are needed again. A Philox can be put at
the start of any key's stream by setting its `bit_generator.state`, so
generators are not rebuilt: `keyed_philox` rewinds a spare one from a small
list (building one only when the list is empty) and `release_philox` hands it
back. One rule governs every loan: a draw takes a generator for its first
block and hands it back right after its last, so two live streams never share
one and the estimator holds none while the loss function runs. Only
`generate_noise` and `iter_noise_chunks` borrow here; a walk stopped before
its last block is simply collected, generator and all. The loss may take and
release generators of its own (task batches, for instance).

Each estimate's three passes (+shift, -shift, restore) go through one
`_Stream` and consume only the scaled step d = fl(epsilon*z). None rescales z:
fl(-epsilon*z) = -d and fl(x - (-d)) = fl(x + d) in IEEE arithmetic, so the
-shift and the restore only add or subtract d. A vector that fits in one chunk
keeps d, its noise drawn and scaled once, and each pass works on the whole
vector through two temporaries of its size; a longer one redraws and scales
each chunk on every pass and works through two chunk-sized buffers. The update
walks the n directions' raw z in lockstep. So a step draws from a stream 2n
times for a one-chunk vector and 4n times for a longer one, and one
`spsa_directional_derivative` once and three times. A chunk is the module
constant `DEFAULT_CHUNK` values; no caller passes a size.

The estimator's own bytes at a loss evaluation are one sparse record of the
few coordinates whose float perturbation cannot be undone bit for bit by
arithmetic alone, 10 bytes each (a uint16 chunk-local index and the saved
float64), plus the whole d only when it fits in one chunk.
With a pass's scratch they peak at the kept d plus two temporaries of its size
for a one-chunk vector, and at two chunk buffers plus the record for a longer
one. The record makes the parameter vector come back bit-for-bit after an
estimate.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from mezofit.memory import ConfigError, check_field_types, real_setting, shown

DEFAULT_CHUNK = 1 << 16

_MASK64 = (1 << 64) - 1


class NonfiniteLossError(RuntimeError):
    """A loss evaluation produced NaN or Inf; parameters were restored."""


class NonfiniteGradError(RuntimeError):
    """A gradient evaluation produced NaN or Inf; no update was applied."""


# ---------------------------------------------------------------------------
# flat parameters with named segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    name: str
    offset: int
    length: int


@dataclass
class ParameterVector:
    """Flat float64 parameter storage tiled exactly by named segments. The
    estimator sees only the flat values; the model that lays the segments
    out gives them shapes (`ToyTransformer._views`)."""

    values: np.ndarray
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        self.segments = tuple(self.segments)
        names = [s.name for s in self.segments]
        if len(set(names)) != len(names):
            raise ValueError("segment names must be unique")
        pos = 0
        for seg in self.segments:
            if seg.offset != pos or seg.length < 0:
                raise ValueError(
                    f"segments must tile the vector contiguously; "
                    f"segment {seg.name!r} starts at {seg.offset}, expected {pos}")
            pos += seg.length
        if pos != self.values.size:
            raise ValueError(
                f"segments cover {pos} elements but the vector holds {self.values.size}")

    def __len__(self) -> int:
        return self.values.size

    def copy(self) -> "ParameterVector":
        return ParameterVector(self.values.copy(), self.segments)


# ---------------------------------------------------------------------------
# deterministic noise streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSeed:
    """Key of one regenerable standard-normal stream."""

    seed: int
    stream_index: int


def splitmix64(x: int) -> int:
    """Standard 64-bit finalizer; used to derive per-step seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def step_seed(master_seed: int, step_index: int) -> int:
    """64-bit seed for one optimizer step; fresh directions for every step."""
    return splitmix64((master_seed & _MASK64) ^ splitmix64(step_index & _MASK64))


# Idle generators, handed back by their owners. Building a Philox costs about
# ten rewinds, because numpy draws a SeedSequence from OS entropy even when
# `key=` is given. The list never holds more generators than were live at
# once, and list.pop gives each one to a single caller.
_SPARE: list[np.random.Generator] = []
_ZEROS = (0, 0, 0, 0)
_KEYED = {"counter": _ZEROS, "key": (0, 0)}  # every rewind's state; only the key changes
_REWIND = {"bit_generator": "Philox", "state": _KEYED, "buffer": _ZEROS,
           "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def keyed_philox(k0: int, k1: int) -> np.random.Generator:
    """A generator at the start of the Philox stream keyed by (k0, k1), each
    an integer (Python or numpy) taken modulo 2^64: the draws of
    Generator(Philox(key=[k0, k1])).

    The caller owns it until it hands it back with `release_philox`, and must
    not use it after that. One never handed back is simply collected."""
    k0, k1 = operator.index(k0), operator.index(k1)
    try:
        gen = _SPARE.pop()
    except IndexError:
        gen = np.random.Generator(np.random.Philox())
    _KEYED["key"] = (k0 & _MASK64, k1 & _MASK64)
    gen.bit_generator.state = _REWIND
    _KEYED["key"] = (0, 0)  # so no key outlives its rewind
    return gen


def release_philox(gen: np.random.Generator) -> None:
    """Hand back a generator from `keyed_philox` once its owner is done."""
    _SPARE.append(gen)


def generate_noise(seed: PerturbationSeed, length: int) -> np.ndarray:
    """The first `length` values of a standard-normal stream, in one draw."""
    if length < 0:
        raise ValueError("length must be >= 0")
    gen = keyed_philox(seed.seed, seed.stream_index)
    noise = gen.standard_normal(length)
    release_philox(gen)
    return noise


def iter_noise_chunks(seed: PerturbationSeed, length: int,
                      out: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (offset, block) pieces of the stream, `DEFAULT_CHUNK` values a
    block, without holding it whole.

    With `out` (at least min(DEFAULT_CHUNK, length) floats) each block is
    drawn into a view of it, which the next step overwrites. The generator
    goes back before the last block is yielded; an empty stream takes none."""
    if length <= 0:
        return
    chunk = DEFAULT_CHUNK
    gen = keyed_philox(seed.seed, seed.stream_index)
    for start in range(0, length, chunk):
        m = min(chunk, length - start)
        block = gen.standard_normal(m, out=None if out is None else out[:m])
        if start + m == length:
            release_philox(gen)
        yield start, block


# ---------------------------------------------------------------------------
# hyperparameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZOConfig:
    epsilon: float = 1e-3
    learning_rate: float = 1e-3
    num_perturbations: int = 5
    master_seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self, positive=("epsilon",))
        if not 1 <= self.num_perturbations <= sys.maxsize:
            raise ConfigError(f"num_perturbations must be an integer in [1, {sys.maxsize}], "
                              f"got {shown(self.num_perturbations)}")


@dataclass(frozen=True)
class StepReport:
    step_index: int
    seeds: tuple[PerturbationSeed, ...]
    projected_gradients: tuple[float, ...]
    losses: tuple[tuple[float, float], ...]  # (loss_plus, loss_minus) per direction


# ---------------------------------------------------------------------------
# exactly-reversible in-place perturbation
# ---------------------------------------------------------------------------
#
# Plain float adds lose low bits, so x + d - d != x for a large fraction of
# coordinates. Each pass below therefore checks invertibility coordinate-wise,
# on bit patterns so that -0.0 and NaN payloads count, and records the
# original bits of the (rare) coordinates that fail; the next pass takes each
# chunk's entry out as it replays it, so the old record shrinks as the new one
# grows. It holds a tiny fraction of the vector for unit-scale parameters and
# epsilon ~ 1e-3, indexed in the smallest unsigned type that holds a
# chunk-local index, fixed once per stream.

_Record = dict[int, tuple[np.ndarray, np.ndarray]]  # chunk start -> (local idx, saved values)


class _Stream:
    """One direction's scaled step d = fl(epsilon*z), walked from its start by
    every pass; epsilon is a Python float, as `real_setting` returns it.

    It holds no generator between passes. A vector of at most `DEFAULT_CHUNK`
    values keeps d: its noise, drawn by `generate_noise`, is scaled once in
    place and kept until the shift that restores the base. A longer one is
    walked by `iter_noise_chunks`, each drawn chunk scaled in place. `shift`
    keeps its sign and undo record for the next shift to read.
    """

    def __init__(self, seed: PerturbationSeed, size: int, epsilon: float):
        self.seed, self.size, self.epsilon = seed, size, epsilon
        self.index = None  # the undo record's index type, fixed by its first entry
        self.kept = None
        if size <= DEFAULT_CHUNK:
            self.kept = generate_noise(seed, size)
            self.kept *= epsilon
        self.sign, self.undo = 0.0, {}

    def shift(self, values: np.ndarray, sign: float) -> None:
        """values <- fl(base + sign*d), where sign is +1, -1 or 0.

        `base` is the unperturbed vector: `values` itself before the first
        shift, afterwards values - last_sign*d with the coordinates of the
        last undo record put back, which recovers it exactly. d is only added
        or subtracted, never rescaled. sign = 0 restores the base only and
        drops the kept d. A kept d is shifted whole, through two temporaries
        of its size; a longer vector through two chunk buffers, the exactness
        check writing into the drawn chunk.
        """
        record: _Record = {}
        if self.kept is not None:
            self._block(values, self.kept, sign, 0, record, None, None)
            if not sign:
                self.kept = None
        else:
            zbuf, up = np.empty((2, DEFAULT_CHUNK))
            for start, d in iter_noise_chunks(self.seed, self.size, zbuf):
                d *= self.epsilon
                m = d.size
                self._block(values[start:start + m], d, sign, start, record, up[:m], d)
        self.sign, self.undo = sign, record

    def _block(self, base, d, sign, start, record, up, back) -> None:
        """One block of `shift`: take the last shift out of `base`, put the new
        one in and record the coordinates that fl(up - sign*d) does not give
        back bit for bit."""
        if self.sign:
            (np.subtract if self.sign > 0 else np.add)(base, d, out=base)
            fix = self.undo.pop(start, None)
            if fix is not None:
                base[fix[0]] = fix[1]
        if sign:
            up = (np.add if sign > 0 else np.subtract)(base, d, out=up)
            back = (np.subtract if sign > 0 else np.add)(up, d, out=back)
            bad = (back.view(np.uint64) != base.view(np.uint64)).nonzero()[0]
            if bad.size:
                if self.index is None:  # a numpy call of about 1 us; most small passes skip it
                    self.index = np.min_scalar_type(min(DEFAULT_CHUNK, self.size) - 1)
                record[start] = (bad.astype(self.index), base[bad])
            base[:] = up


def spsa_directional_derivative(loss_fn: Callable[[ParameterVector], float],
                                theta: ParameterVector,
                                seed: PerturbationSeed,
                                epsilon: float) -> float:
    """Central-difference directional derivative along a regenerated direction.

    Evaluates the loss at theta + eps*z and theta - eps*z by shifting theta in
    place (z is streamed from `seed`, never stored whole), restores theta
    bit-for-bit, and returns (loss_plus - loss_minus) / (2*eps). Theta is
    restored too when a loss is non-finite or `loss_fn` raises. An epsilon
    that `real_setting` refuses raises ConfigError before theta is touched.
    """
    epsilon = real_setting("epsilon", epsilon, positive=True)
    g, _, _ = _spsa_full(loss_fn, theta, _Stream(seed, len(theta), epsilon))
    return g


def _spsa_full(loss_fn, theta, stream):
    """(g, loss_plus, loss_minus); theta is restored however the losses end,
    a non-finite value or an exception from `loss_fn`."""
    values = theta.values
    stream.shift(values, +1.0)
    try:
        loss_plus = float(loss_fn(theta))
        if not math.isfinite(loss_plus):
            raise NonfiniteLossError(f"loss at +epsilon perturbation is {loss_plus}")
        stream.shift(values, -1.0)
        loss_minus = float(loss_fn(theta))
    finally:
        stream.shift(values, 0.0)
    if not math.isfinite(loss_minus):
        raise NonfiniteLossError(f"loss at -epsilon perturbation is {loss_minus}")
    return (loss_plus - loss_minus) / (2.0 * stream.epsilon), loss_plus, loss_minus


# ---------------------------------------------------------------------------
# optimizer steps
# ---------------------------------------------------------------------------

def mezo_step(loss_fn: Callable[[ParameterVector], float],
              theta: ParameterVector,
              cfg: ZOConfig,
              step_index: int) -> tuple[ParameterVector, StepReport]:
    """One MeZO step: average num_perturbations projected gradients, then
    apply theta <- theta - (lr/n) * sum_i g_i * z_i with every z_i regenerated
    from its seed.

    A non-finite loss raises NonfiniteLossError and a non-finite projected
    gradient raises NonfiniteGradError; either way, and when `loss_fn` raises,
    theta is at its pre-step value, since the update has not begun. If the
    update itself overflows (finite gradients whose scaled sum is not), theta
    keeps the non-finite values written and NonfiniteLossError is raised."""
    if step_index < 0:
        raise ConfigError(f"step_index must be >= 0, got {step_index}")
    sseed = step_seed(cfg.master_seed, step_index)
    n = cfg.num_perturbations
    seeds = tuple(PerturbationSeed(sseed, i) for i in range(n))
    size = theta.values.size

    gs, losses = [], []
    for s in seeds:
        g, lp, lm = _spsa_full(loss_fn, theta, _Stream(s, size, cfg.epsilon))
        gs.append(g)
        losses.append((lp, lm))
    if not all(map(math.isfinite, gs)):
        raise NonfiniteGradError(f"projected gradients {gs} are not all finite")
    if cfg.learning_rate > 0:
        scale = cfg.learning_rate / n
        zbuf, abuf = np.empty((2, min(DEFAULT_CHUNK, size)))
        walks = [iter_noise_chunks(s, size, zbuf) for s in seeds]  # in lockstep
        finite = True
        for start, z in walks[0]:
            m = z.size
            acc = np.multiply(z, gs[0], out=abuf[:m])
            for g, walk in zip(gs[1:], walks[1:]):
                acc += np.multiply(next(walk)[1], g, out=zbuf[:m])
            acc *= scale
            part = theta.values[start:start + m]
            part -= acc
            finite = finite and bool(np.isfinite(part).all())
        if not finite:
            raise NonfiniteLossError("parameter vector contains NaN/Inf")

    report = StepReport(step_index, seeds, tuple(gs), tuple(losses))
    return theta, report


def bp_sgd_step(loss_and_grad_fn: Callable[[ParameterVector],
                                           tuple[ParameterVector, float]],
                theta: ParameterVector,
                eta: float) -> ParameterVector:
    """Vanilla SGD: theta <- theta - eta * grad, consuming the gradient buffer.
    `loss_and_grad_fn` returns (gradient, loss) as the toy model's backward does.
    An eta that `real_setting` refuses raises ConfigError before it is called."""
    eta = real_setting("eta", eta, positive=False)
    grad, loss = loss_and_grad_fn(theta)
    if not math.isfinite(loss):
        raise NonfiniteLossError(f"loss is {loss}")
    if grad.values.shape != theta.values.shape:
        raise ValueError("gradient and parameter shapes differ")
    if not np.isfinite(grad.values).all():
        raise NonfiniteGradError("gradient contains NaN/Inf")
    grad.values *= eta
    theta.values -= grad.values
    return theta
