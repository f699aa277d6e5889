"""MeZO/SPSA zeroth-order gradient estimation with seed-regenerated noise.

The estimator perturbs the flat parameter vector in place with Gaussian
directions that are never materialized at full length: noise streams come
from a counter-based generator (Philox) keyed by (seed, stream index) and are
replayed chunk by chunk whenever they are needed again. A Philox can be put at
the start of any key's stream by setting its `bit_generator.state`, so
generators are not rebuilt: `keyed_philox` rewinds a spare one from a small
list (building one only when the list is empty) and `release_philox` hands it
back. A generator belongs to one owner from `keyed_philox` until that owner
releases it, so two live streams never share one; `mezo_step` owns its n
directions' generators through the whole step, while the loss function it
calls may take and release others (task batches, for instance).

Each direction keeps its first chunk for its three passes (+shift, -shift,
restore), so a vector that fits in one chunk draws that direction's noise once
before the update. Every pass works in place through a few chunk-sized
scratch buffers, allocated once per pass.

Peak extra storage is therefore bounded by chunk-sized blocks (the kept chunk
plus at most three scratch buffers) and a sparse record of the few
coordinates whose float perturbation cannot be undone by arithmetic alone, so
the parameter vector is always restored bit-for-bit after an estimate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from mezofit.memory import ConfigError

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
    """Flat float64 parameter storage tiled exactly by named segments."""

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
        self._by_name = {s.name: s for s in self.segments}

    @classmethod
    def from_arrays(cls, named_arrays: Sequence[tuple[str, np.ndarray]]) -> "ParameterVector":
        segments, chunks, pos = [], [], 0
        for name, arr in named_arrays:
            flat = np.asarray(arr, dtype=np.float64).ravel()
            segments.append(Segment(name, pos, flat.size))
            chunks.append(flat)
            pos += flat.size
        values = np.concatenate(chunks) if chunks else np.empty(0)
        return cls(values, tuple(segments))

    def __len__(self) -> int:
        return self.values.size

    def segment(self, name: str) -> np.ndarray:
        seg = self._by_name[name]
        return self.values[seg.offset:seg.offset + seg.length]

    def view(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        return self.segment(name).reshape(shape)

    def copy(self) -> "ParameterVector":
        return ParameterVector(self.values.copy(), self.segments)

    def assert_finite(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise NonfiniteLossError("parameter vector contains NaN/Inf")


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


def _rewind(gen: np.random.Generator, k0: int, k1: int) -> np.random.Generator:
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (k0 & _MASK64, k1 & _MASK64)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def keyed_philox(k0: int, k1: int) -> np.random.Generator:
    """A generator at the start of the Philox stream keyed by (k0, k1), each
    taken modulo 2^64: the draws of Generator(Philox(key=[k0, k1])).

    The caller owns it until it hands it back with `release_philox`, and must
    not use it after that. One never handed back is simply collected."""
    try:
        gen = _SPARE.pop()
    except IndexError:
        gen = np.random.Generator(np.random.Philox())
    return _rewind(gen, k0, k1)


def release_philox(gen: np.random.Generator) -> None:
    """Hand back a generator from `keyed_philox` once its owner is done."""
    _SPARE.append(gen)


def generate_noise(seed: PerturbationSeed, length: int) -> np.ndarray:
    """Materialize a standard-normal stream (tests and small vectors only)."""
    if length < 0:
        raise ValueError("length must be >= 0")
    gen = keyed_philox(seed.seed, seed.stream_index)
    try:
        return gen.standard_normal(length)
    finally:
        release_philox(gen)


def iter_noise_chunks(seed: PerturbationSeed, length: int,
                      chunk: int = DEFAULT_CHUNK) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (offset, block) pieces of the stream without holding it whole."""
    gen = keyed_philox(seed.seed, seed.stream_index)
    try:
        for start in range(0, length, chunk):
            yield start, gen.standard_normal(min(chunk, length - start))
    finally:
        release_philox(gen)


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
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon!r}")
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate!r}")
        if not (isinstance(self.num_perturbations, int) and self.num_perturbations >= 1):
            raise ConfigError(
                f"num_perturbations must be a positive integer, got {self.num_perturbations!r}")


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
# coordinates. Each pass below therefore checks invertibility coordinate-wise
# and records the original bits of the (rare) coordinates that fail; the
# record is replayed by the next pass. Expected record size is a tiny
# fraction of the vector for unit-scale parameters and epsilon ~ 1e-3.

_Record = dict[int, tuple[np.ndarray, np.ndarray]]  # chunk start -> (local idx, saved values)


class _Stream:
    """One direction's noise, replayed chunk by chunk for each pass.

    It owns one generator from `keyed_philox` until `release`; later passes
    rewind it instead of building another. The first chunk is generated once
    and kept until `rewind`, so a vector of one chunk draws its noise once for
    all three passes of an estimate.
    """

    def __init__(self, seed: PerturbationSeed, size: int, chunk: int):
        self.key = (seed.seed, seed.stream_index)
        self.gen = keyed_philox(*self.key)
        self.size, self.chunk = size, chunk
        self.first = self.gen.standard_normal(min(chunk, size))
        self.after_first = self.gen.bit_generator.state if size > chunk else None

    def chunks(self, buf: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (offset, z) over the stream: the kept first chunk, then
        chunks generated into `buf`, which each step overwrites."""
        yield 0, self.first
        if self.after_first is not None:
            self.gen.bit_generator.state = self.after_first
        for start in range(self.chunk, self.size, self.chunk):
            z = buf[:min(self.chunk, self.size - start)]
            self.gen.standard_normal(out=z)
            yield start, z

    def rewind(self) -> None:
        """Drop the kept chunk and put the generator at the stream start."""
        self.first = None
        _rewind(self.gen, *self.key)

    def release(self) -> None:
        """Hand the generator back; the stream is unusable afterwards."""
        gen, self.gen = self.gen, None
        release_philox(gen)


def _shift(values: np.ndarray, stream: _Stream, epsilon: float, sign: float,
           prev: tuple[float, _Record] | None = None) -> _Record:
    """values <- fl(base + sign*epsilon*z), where sign is +1, -1 or 0.

    `base` is the unperturbed vector. With `prev` None, `values` is the base.
    Otherwise `prev` is (prev_sign, undo) from the previous shift along the
    same direction, and the base is recovered exactly as
    values - prev_sign*epsilon*z with the coordinates in `undo` put back.
    sign = 0 restores the base only. Returns the record undoing this shift.
    Works in place with three chunk-sized scratch buffers.
    """
    prev_sign, undo = prev or (0.0, {})
    record: _Record = {}
    zbuf, d, shifted = np.empty((3, min(stream.chunk, values.size)))
    for start, z in stream.chunks(zbuf):
        m = z.size
        base, dm, up = values[start:start + m], d[:m], shifted[:m]
        if prev_sign:
            base -= np.multiply(z, prev_sign * epsilon, out=dm)
            fix = undo.get(start)
            if fix is not None:
                base[fix[0]] = fix[1]
        if sign:
            np.multiply(z, sign * epsilon, out=dm)
            np.add(base, dm, out=up)
            bad = np.nonzero(np.subtract(up, dm, out=dm) != base)[0]
            if bad.size:
                record[start] = (bad, base[bad])
            base[:] = up
    return record


def spsa_directional_derivative(loss_fn: Callable[[ParameterVector], float],
                                theta: ParameterVector,
                                seed: PerturbationSeed,
                                epsilon: float,
                                chunk: int = DEFAULT_CHUNK) -> float:
    """Central-difference directional derivative along a regenerated direction.

    Evaluates the loss at theta + eps*z and theta - eps*z by shifting theta in
    place (z is streamed from `seed`, never stored whole), restores theta
    bit-for-bit, and returns (loss_plus - loss_minus) / (2*eps).
    """
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be > 0, got {epsilon!r}")
    stream = _Stream(seed, len(theta), chunk)
    try:
        g, _, _ = _spsa_full(loss_fn, theta, stream, epsilon)
    finally:
        stream.release()
    return g


def _spsa_full(loss_fn, theta, stream, epsilon):
    values = theta.values
    up = (+1.0, _shift(values, stream, epsilon, +1.0))
    loss_plus = float(loss_fn(theta))
    if not np.isfinite(loss_plus):
        _shift(values, stream, epsilon, 0.0, up)
        raise NonfiniteLossError(f"loss at +epsilon perturbation is {loss_plus}")
    down = (-1.0, _shift(values, stream, epsilon, -1.0, up))
    loss_minus = float(loss_fn(theta))
    _shift(values, stream, epsilon, 0.0, down)
    if not np.isfinite(loss_minus):
        raise NonfiniteLossError(f"loss at -epsilon perturbation is {loss_minus}")
    return (loss_plus - loss_minus) / (2.0 * epsilon), loss_plus, loss_minus


# ---------------------------------------------------------------------------
# optimizer steps
# ---------------------------------------------------------------------------

def mezo_step(loss_fn: Callable[[ParameterVector], float],
              theta: ParameterVector,
              cfg: ZOConfig,
              step_index: int,
              chunk: int = DEFAULT_CHUNK) -> tuple[ParameterVector, StepReport]:
    """One MeZO step: average num_perturbations projected gradients, then
    apply theta <- theta - (lr/n) * sum_i g_i * z_i with every z_i regenerated
    a second time.

    A non-finite loss raises NonfiniteLossError and a non-finite projected
    gradient raises NonfiniteGradError; either way theta is at its pre-step
    value, since the update has not begun. If the update itself overflows
    (finite gradients whose scaled sum is not), theta keeps the non-finite
    values written and NonfiniteLossError is raised."""
    if step_index < 0:
        raise ConfigError(f"step_index must be >= 0, got {step_index}")
    sseed = step_seed(cfg.master_seed, step_index)
    n = cfg.num_perturbations
    seeds = tuple(PerturbationSeed(sseed, i) for i in range(n))
    size = theta.values.size

    gs, losses, streams = [], [], []
    try:
        for s in seeds:
            streams.append(_Stream(s, size, chunk))
            g, lp, lm = _spsa_full(loss_fn, theta, streams[-1], cfg.epsilon)
            gs.append(g)
            losses.append((lp, lm))
            streams[-1].rewind()
        if not np.all(np.isfinite(gs)):
            raise NonfiniteGradError(f"projected gradients {gs} are not all finite")
        if cfg.learning_rate > 0:
            scale = cfg.learning_rate / n
            gens = [st.gen for st in streams]  # rewound, ascending stream order
            zbuf, abuf = np.empty((2, min(chunk, size)))
            for start in range(0, size, chunk):
                m = min(chunk, size - start)
                z, acc = zbuf[:m], abuf[:m]
                gens[0].standard_normal(out=acc)
                acc *= gs[0]
                for g, gen in zip(gs[1:], gens[1:]):
                    gen.standard_normal(out=z)
                    z *= g
                    acc += z
                acc *= scale
                theta.values[start:start + m] -= acc
            theta.assert_finite()
    finally:
        for stream in streams:
            stream.release()

    report = StepReport(step_index, seeds, tuple(gs), tuple(losses))
    return theta, report


def bp_sgd_step(loss_and_grad_fn: Callable[[ParameterVector],
                                           tuple[ParameterVector, float]],
                theta: ParameterVector,
                eta: float) -> ParameterVector:
    """Vanilla SGD: theta <- theta - eta * grad. `loss_and_grad_fn` returns
    (gradient, loss) as produced by the toy model's backward pass."""
    grad, loss = loss_and_grad_fn(theta)
    if not np.isfinite(loss):
        raise NonfiniteLossError(f"loss is {loss}")
    gvals = grad.values if isinstance(grad, ParameterVector) else np.asarray(grad)
    if gvals.shape != theta.values.shape:
        raise ValueError("gradient and parameter shapes differ")
    if not np.all(np.isfinite(gvals)):
        raise NonfiniteGradError("gradient contains NaN/Inf")
    theta.values -= eta * gvals
    return theta
