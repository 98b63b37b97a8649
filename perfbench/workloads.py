"""Seeded request streams and prompts for the four workloads.

A *wave* is a group of requests the engine serves in one ``run``; a
workload is a fixed list of waves, a pure function of ``(name, seed)``.  The
engine receives nothing but the wave's ``Request`` list and a prompt lookup.

The seed draws the *content* -- filler text, keys, values, distractors --
and nothing that changes the amount of work: prompt lengths, needle depths
and arrival gaps sit on fixed grids.  The driver compares runs made with
different seeds, so a seeded length or gap would show up as run-to-run
spread of TTFT, and with the engine's default ``replan_interval=4`` whether a
needle is retrieved depends mostly on *where* it lies relative to the last
replanned chunk, so a seeded depth would make ``answer_score`` swing with
the seed while telling nothing about the code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving import Request
from repro.tasks.needle import make_needle_case
from repro.vocab import DEFAULT_VOCAB

# name -> one-line reason; this order is the order BENCHMARK.json lists.
WORKLOADS = {
    "prefill_long": (
        "2-4K-token needle prompts through sparse packed prefill: the paper's "
        "regime, planner and packed kernel do ~90% of the work"
    ),
    "prefill_long_dense": (
        "the first prefill_long wave through dense flash attention: quality "
        "anchor and TTFT denominator, bypasses planner, plan cache and packed kernel"
    ),
    "decode_heavy": (
        "16 short prompts x 160 decode tokens: planner idle, batched decode "
        "and KV reads dominate"
    ),
    "serving_mix": (
        "staggered bursts sharing a 1024-token prefix on paged KV: continuous "
        "batching, prefix sharing and the memory layer do real work"
    ),
}

_DEPTH_SLOTS = 16
_DEPTH_STRIDE = 7  # coprime to the slot count: consecutive requests spread out
_PREFIX_TOKENS = 1024
_SUFFIX_LENS = (768, 256, 1024, 512, 640, 384)
#: Gaps between a burst's followers: the 1/8, 3/8, 5/8, 7/8 quantiles of an
#: exponential distribution with mean 0.1 s.
_FOLLOWER_GAPS_S = (0.0981, 0.0134, 0.2079, 0.0470)
#: Virtual seconds between a burst's prefix donor and its followers; long
#: enough that the donor has registered the prefix on any machine, so which
#: requests adopt it (and hence every generated token) never depends on speed.
_DONOR_LEAD_S = 1000.0


@dataclass(frozen=True)
class Wave:
    requests: list[Request]
    prompts: dict[int, np.ndarray]
    answers: dict[int, tuple[int, ...]]

    def prompt_for(self, request: Request, executed_len: int) -> np.ndarray:
        """The engine's ``prompt_builder`` hook: a plain lookup."""
        return self.prompts[request.request_id]


def _depth(k: int) -> float:
    """Stratified over the second half of the haystack.  There retrieval is
    decided by plan staleness (a needle behind the last replanned chunk and
    before the final window is lost), which is the same for every seed; in
    the first half of 3-4K prompts it is a coin flip of stripe selection
    (README, "What the benchmark does not see")."""
    return 0.5 + 0.5 * ((k * _DEPTH_STRIDE) % _DEPTH_SLOTS + 0.5) / _DEPTH_SLOTS


def _needle_wave(stream, seed, wave, lens, arrivals, decode_tokens, prefix=None):
    requests, prompts, answers = [], {}, {}
    for slot, (n, arrival) in enumerate(zip(lens, arrivals)):
        rid = wave * len(lens) + slot
        rng = np.random.default_rng((seed, stream, rid))
        case = make_needle_case(int(n), _depth(rid), rng=rng)
        prompt = case.prompt
        if prefix is not None:
            prompt = np.concatenate([prefix, prompt[1:]])  # one BOS only
        prompts[rid] = prompt
        answers[rid] = case.answer
        requests.append(Request(rid, float(arrival), int(prompt.size), decode_tokens))
    return Wave(requests, prompts, answers)


def _prefill_long(seed, smoke):
    lens = (256, 384, 512, 384) if smoke else (2048, 3072, 4096, 3072)
    return [
        _needle_wave(0, seed, w, lens, [0.0] * 4, 8)
        for w in range(1 if smoke else 4)
    ]


def _decode_heavy(seed, smoke):
    n, decode = (4, 16) if smoke else (16, 160)
    waves = []
    for w in range(1 if smoke else 3):
        # 132..252 tokens in steps of 8, in an order that differs per wave
        lens = [132 + 8 * ((_DEPTH_STRIDE * k + 5 * w) % 16) for k in range(n)]
        waves.append(_needle_wave(1, seed, w, lens, [0.0] * n, decode))
    return waves


def _serving_mix(seed, smoke):
    suffix_lens, decode = ((64, 256, 128), 8) if smoke else (_SUFFIX_LENS, 32)
    n = len(suffix_lens)
    rng = np.random.default_rng((seed, 2))
    filler = DEFAULT_VOCAB.sample_filler(rng, _PREFIX_TOKENS - 1)
    prefix = np.concatenate([[DEFAULT_VOCAB.BOS], filler]).astype(np.int64)
    waves = []
    for w in range(1 if smoke else 3):
        lens = np.roll(suffix_lens, w) + 1  # +1: the BOS dropped on joining
        gaps = np.roll(_FOLLOWER_GAPS_S, w)[: n - 2]
        arrivals = [0.0, _DONOR_LEAD_S, *(_DONOR_LEAD_S + np.cumsum(gaps))]
        waves.append(_needle_wave(2, seed, w, lens, arrivals, decode, prefix))
    return waves


def make_waves(name: str, seed: int, *, smoke: bool = False) -> list[Wave]:
    """The workload's waves; equal ``(name, seed, smoke)`` gives equal waves."""
    if name == "prefill_long":
        return _prefill_long(seed, smoke)
    if name == "prefill_long_dense":
        return _prefill_long(seed, smoke)[:1]
    if name == "decode_heavy":
        return _decode_heavy(seed, smoke)
    if name == "serving_mix":
        return _serving_mix(seed, smoke)
    raise ValueError(f"unknown workload {name!r}; expected one of {list(WORKLOADS)}")
