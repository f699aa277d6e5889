"""Deterministic synthetic sequence tasks for desk-scale fine-tuning runs.

Every sample is a pure function of (task seed, split, sample index), so
train and eval splits are disjoint by index partition and runs are exactly
reproducible. Target grids use -1 for positions excluded from the loss.

A sample draws from a Philox keyed by (task seed, index) through
`zo.keyed_philox`, which rewinds a spare generator instead of building one.
`ToyTask.batch` is the one code path: each row makes only its own keyed
draws; the rest (the successor chain, the separator, copy, marker and answer
columns, the targets) runs once per batch. The next-token chain's successor
table depends only on (seed, vocab_size), so it is memoised per pair; its
arrays are read-only, so no caller can change what later samples see.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from mezofit.memory import ConfigError, check_field_types
from mezofit.zo import keyed_philox, release_philox, splitmix64

EVAL_INDEX_BASE = 1 << 40  # train uses [0, 2^40), eval starts here
_TABLE_SALT = 0x6D61726B   # keys the next-token successor table
_SAMPLE_SALT = 0x73616D70  # keys each sample's draws

SEP_TOKEN = 0     # sequence-copy separator
QMARK_TOKEN = 2   # binary-qa "question mark"


class TaskKind(str, Enum):
    SEQUENCE_COPY = "sequence_copy"
    NEXT_TOKEN_SYNTHETIC = "next_token_synthetic"
    BINARY_QA_SYNTHETIC = "binary_qa_synthetic"


# The next-token chain has fanout 2 with a 0.9/0.1 split: the argmax-accuracy
# ceiling is 0.9 and the dominant successor gives a dense, mostly-clean
# learning signal. A sample picks each successor by looking a uniform draw up
# in the cumulative split (the draws Generator.choice(2, p=...) makes).
_SUCCESSOR_P = np.array([0.9, 0.1])
_SUCCESSOR_CDF = np.cumsum(_SUCCESSOR_P)
_SUCCESSOR_P.flags.writeable = _SUCCESSOR_CDF.flags.writeable = False


@lru_cache(maxsize=64)
def _markov_table(seed: int, vocab_size: int) -> np.ndarray:
    """Per-token successor table of the next-token chain, shape (V, 2);
    built once per (seed, vocab_size) and read-only, as callers share it."""
    gen = keyed_philox(splitmix64(seed ^ _TABLE_SALT), 0)
    succ = np.empty((vocab_size, 2), dtype=np.int64)
    for v in range(vocab_size):
        succ[v] = gen.permutation(vocab_size)[:2]
    release_philox(gen)
    succ.flags.writeable = False
    return succ


@dataclass(frozen=True)
class ToyTask:
    kind: TaskKind
    vocab_size: int
    seq_len: int
    seed: int

    def __post_init__(self) -> None:
        try:  # a plain string names its kind too
            object.__setattr__(self, "kind", TaskKind(self.kind))
        except ValueError:
            raise ConfigError(f"kind must be one of {', '.join(TaskKind)}, got {self.kind!r}") from None
        check_field_types(self)
        if self.vocab_size < 2 or self.seq_len < 2:
            raise ConfigError("vocab_size and seq_len must be at least 2")
        if self.kind is TaskKind.SEQUENCE_COPY:
            if self.seq_len % 2 == 0 or self.seq_len < 3:
                raise ConfigError("sequence_copy needs an odd seq_len >= 3 "
                                  "(pattern, separator, pattern)")
            if self.vocab_size < 3:
                raise ConfigError("sequence_copy needs vocab_size >= 3")
        if self.kind is TaskKind.BINARY_QA_SYNTHETIC:
            if self.seq_len < 4:
                raise ConfigError("binary_qa needs seq_len >= 4")
            if self.vocab_size < 5:
                raise ConfigError("binary_qa needs vocab_size >= 5 "
                                  "(answers 0/1, marker, question tokens)")

    def batch(self, indices, split: str = "train") -> tuple[np.ndarray, np.ndarray]:
        """(tokens, targets) of the samples at `indices` (a sized sequence of
        at least one integer), each array of shape (len(indices), seq_len)."""
        if split not in ("train", "eval"):
            raise ValueError(f"split must be train or eval, got {split!r}")
        n, L, V = len(indices), self.seq_len, self.vocab_size
        if n == 0:
            raise ValueError("a batch needs at least one index")
        key = splitmix64(self.seed ^ _SAMPLE_SALT)
        base = EVAL_INDEX_BASE if split == "eval" else 0
        kind = self.kind
        tokens = np.empty((n, L), dtype=np.int64)
        targets = np.full((n, L), -1, dtype=np.int64)
        u = np.empty((n, L - 1))  # next-token successor draws
        p, q_len = (L - 1) // 2, L - 2  # copy pattern, qa question lengths

        for r, index in enumerate(indices):  # each row's keyed draws, in order
            gen = keyed_philox(key, index + base)
            if kind is TaskKind.NEXT_TOKEN_SYNTHETIC:
                tokens[r, 0] = gen.integers(0, V)
                gen.random(out=u[r])
            elif kind is TaskKind.SEQUENCE_COPY:
                tokens[r, :p] = gen.integers(1, V, size=p)
            else:
                tokens[r, :q_len] = gen.integers(3, V, size=q_len)
            release_philox(gen)

        if kind is TaskKind.NEXT_TOKEN_SYNTHETIC:
            succ = _markov_table(self.seed, V)
            choices = _SUCCESSOR_CDF.searchsorted(u, side="right")
            for i in range(1, L):  # one step of the chain for every row at once
                tokens[:, i] = succ[tokens[:, i - 1], choices[:, i - 1]]
            targets[:, :-1] = tokens[:, 1:]
        elif kind is TaskKind.SEQUENCE_COPY:
            tokens[:, p] = SEP_TOKEN
            tokens[:, p + 1:] = tokens[:, :p]
            targets[:, p:-1] = tokens[:, :p]  # from the separator on, predict the copy
        else:  # BINARY_QA_SYNTHETIC
            tokens[:, q_len] = QMARK_TOKEN
            answer = (tokens[:, 0] + tokens[:, q_len - 1]) % 2
            tokens[:, q_len + 1] = answer
            targets[:, q_len] = answer  # the marker position predicts the answer
        return tokens, targets

    def eval_batch(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        return self.batch(range(count), split="eval")
