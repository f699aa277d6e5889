"""Deterministic synthetic sequence tasks for desk-scale fine-tuning runs.

Every sample is a pure function of (task seed, split, sample index), so
train and eval splits are disjoint by index partition and runs are exactly
reproducible. Target grids use -1 for positions excluded from the loss.

A sample draws from a Philox keyed by (task seed, index) through
`zo.keyed_philox`, which rewinds a spare generator instead of building one.
The next-token chain's successor table depends only on (seed, vocab_size),
so it is built once per pair and memoised; its arrays are read-only, so no
caller can change what later samples see.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from mezofit.memory import ConfigError
from mezofit.zo import keyed_philox, release_philox, splitmix64

_EVAL_INDEX_BASE = 1 << 40  # train uses [0, 2^40), eval starts here
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

    def sample(self, index: int, split: str = "train") -> tuple[np.ndarray, np.ndarray]:
        """One (tokens, targets) pair, each of length seq_len."""
        if split not in ("train", "eval"):
            raise ValueError(f"split must be train or eval, got {split!r}")
        idx = index + (_EVAL_INDEX_BASE if split == "eval" else 0)
        gen = keyed_philox(splitmix64(self.seed ^ _SAMPLE_SALT), idx)
        tokens = np.empty(self.seq_len, dtype=np.int64)
        targets = np.full(self.seq_len, -1, dtype=np.int64)

        if self.kind is TaskKind.SEQUENCE_COPY:
            p = (self.seq_len - 1) // 2
            pattern = gen.integers(1, self.vocab_size, size=p)
            tokens[:p] = pattern
            tokens[p] = SEP_TOKEN
            tokens[p + 1:] = pattern
            targets[p:-1] = pattern  # from the separator on, predict the copy
        elif self.kind is TaskKind.NEXT_TOKEN_SYNTHETIC:
            succ = _markov_table(self.seed, self.vocab_size)
            tokens[0] = gen.integers(0, self.vocab_size)
            choices = _SUCCESSOR_CDF.searchsorted(gen.random(self.seq_len - 1), side="right")
            for i in range(1, self.seq_len):
                tokens[i] = succ[tokens[i - 1], choices[i - 1]]
            targets[:-1] = tokens[1:]
        else:  # BINARY_QA_SYNTHETIC
            q_len = self.seq_len - 2
            q = gen.integers(3, self.vocab_size, size=q_len)
            tokens[:q_len] = q
            tokens[q_len] = QMARK_TOKEN
            answer = int((q[0] + q[-1]) % 2)
            tokens[q_len + 1] = answer
            targets[q_len] = answer  # the marker position predicts the answer
        release_philox(gen)
        return tokens, targets

    def batch(self, indices, split: str = "train") -> tuple[np.ndarray, np.ndarray]:
        pairs = [self.sample(i, split) for i in indices]
        tokens = np.stack([t for t, _ in pairs])
        targets = np.stack([y for _, y in pairs])
        return tokens, targets

    def eval_batch(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        return self.batch(range(count), split="eval")
