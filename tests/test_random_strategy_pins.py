"""Pins of the seeded random strategy constructors.

Acceptance criterion 2 samples thousands of seeded random strategies, so the
constructors must keep both their random draws and their output.  Per seeded
construction this file pins:

- a sha256 of every array that stays bitwise: all CHSH operators, the
  magic-square Bob observables and the `raw` POVMs;
- the `projective` and `mixed` POVMs, entry-wise at 1e-14, against a
  reference that builds each element as a product of dense spectral
  projectors, one matrix at a time (its own output is pinned by sha256);
- the generator's next `rng.random()`, which shows that the number and the
  order of the draws are unchanged.
"""

import hashlib
import itertools

import numpy as np
import pytest

from noisygames.games import (
    MS_QUESTIONS,
    random_chsh_strategy,
    random_magic_square_strategy,
)

VARIABLES = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]


def digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=complex).tobytes())
    return h.hexdigest()


def reference_ms_povms(n: int, rng: np.random.Generator, kind: str, bias: float) -> np.ndarray:
    """The (6, 8, d, d) projective or mixed POVMs, drawn in the constructor's
    order and built one dense product at a time."""
    d = 4 ** n
    povms = []
    for _ in MS_QUESTIONS:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(g)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        obs = []
        for _ in range(3):
            signs = np.concatenate([np.ones(d // 2), -np.ones(d // 2)])
            rng.shuffle(signs)
            if bias:
                flip = rng.random(d) < abs(bias) / 2
                signs[flip] = np.sign(bias) or 1.0
            obs.append((u * signs) @ u.conj().T)
        elems = []
        for answers in itertools.product((1, -1), repeat=3):
            e = np.eye(d, dtype=complex)
            for val, o in zip(answers, obs):
                e = e @ (np.eye(d) + val * o) / 2
            elems.append((e + e.conj().T) / 2)
        povm = np.stack(elems)
        if kind == "mixed":
            lam = rng.uniform(0.0, 0.5)
            povm = (1 - lam) * povm + lam * np.eye(d) / 8
        povms.append(povm)
    return np.stack(povms)


# recorded from the per-matrix constructors: (n, kind, trace_bias) ->
# (operator sha256, next draw) and (POVM sha256, Bob sha256, next draw)
CHSH_PINS = {
    (1, "binary", 0.0): (
        "c1e204bd5e408d6964053f90ab18d9e9a7577d1daf23dbba0d98a9a953eda3b1", 0.9859525519984904),
    (1, "binary", 0.2): (
        "58ba1188edaafa4988abe07e683e2375d3bfd2cdbd6a8e9eb85e0f67024693d8", 0.5134298566537878),
    (1, "bounded", 0.0): (
        "4f92331eaca2a611725a9317a667e8a6558e917153fe524c230208e2b2a5c459", 0.6844582879473523),
    (1, "bounded", 0.2): (
        "7d0d4219b3f29566ebd0571faeb284798e507ad2529ddd70423044b4990e30f1", 0.3168120366620104),
    (2, "binary", 0.0): (
        "af6b5b2305f4354fb7d695c58d683e4c746930578aafae617d764a42e26614c7", 0.601733827971817),
    (2, "binary", 0.2): (
        "e054b797e5d1d1a3daceaa3b74cbcacef3fc0ee5e9e52e54f64fa17e0df7a3e7", 0.6877566399805654),
    (2, "bounded", 0.0): (
        "b2f1d2e7050b957bcd7fb48a953236030e57944bda2ee93551cb2ae32328a6b6", 0.2848631486632238),
    (2, "bounded", 0.2): (
        "af0a3a2e2ef4f69b87c14140c82bc2cd555a31862fbde1959c002691eb09972b", 0.12420558470259713),
    (3, "binary", 0.0): (
        "c733dd9a839a1df33ecdb39980629d4cb5a6724b0e672229d2ae843581c6632e", 0.9933385059883207),
    (3, "binary", 0.2): (
        "350fa83958dc64842da17905014a6abf189ccef918a6ea11fbfc67248e6a8033", 0.987783003524917),
    (3, "bounded", 0.0): (
        "8723bc611aec8a7adfad0ea17430ebc3f4833222b5da4717533d7511bd17bd16", 0.00437795317712486),
    (3, "bounded", 0.2): (
        "2d0e41fd2ad2f0d32f94de1bd3aa1da1e85cb16edf9a596922061af21b741b9b", 0.6592137491469188),
}

MS_PINS = {
    (1, "projective", 0.0): (
        "8f1451e2f7c6b7036771fac92f661fa9eeae24bad2873321e3831866d7175ff6",
        "da49f6fa0938e35c806a49413075dccbeaa0cae2337fd58edb0817a2fe9fd519",
        0.029166712396226036),
    (1, "projective", 0.2): (
        "72ed13084ae9c21e0f3c1207480e264ac7bd9d4756dfa91985b20e7578cc80a7",
        "5e9c0b8adbbd096843e565771f1aa406f89ad1aa20a32cec3386ee512f85e477",
        0.4115236173377217),
    (1, "mixed", 0.0): (
        "4483786eba3d67de68983b91a88378a696a8ec0c31c2e45589233c544fd16ae4",
        "fcd8a093709532efa6bd76542fa2567bc757571960f43920e8012a9e1be16a96",
        0.2632818260653087),
    (1, "mixed", 0.2): (
        "5f111750712555626c8377f058f04026210ea3d0429a8fe9ea42ce475c67327f",
        "dfa5371ee7395a1b5c96e9455861dfa92165c0abfbc040ea3719724518d47845",
        0.03425940814393402),
    (1, "raw", 0.0): (
        "66586497a6cfe27dd46162d62ca5bd28bba8b84794c54950d614f2b8d5c7d02d",
        "fd0b28595666631ec29c00a9fb7d15e473426a07c14ed7c346e50a278eb248b9",
        0.6251188130144637),
    (1, "raw", 0.2): (
        "314f3e187fb8346177f3f435f976a3accd354ddf46a3589f041d910aa6534534",
        "6a8ef32d52d5d4c9e369a35c6e8ffc3109e8c62b3812fd63341ff064292ebceb",
        0.11008110245782532),
    (2, "projective", 0.0): (
        "cb26c35af0906a2975444c7efdbffe33af3a587b39de62c0c03876972fea80c9",
        "50b57ac33e9c32ee933ee123d6aa6534a33f805a67ca104fd6867a09c9f7b3e8",
        0.1688806448394804),
    (2, "projective", 0.2): (
        "59de4212bedcdcd5014ca6bca6edfabf01acb1f51a4a64803bde22627f59c950",
        "dd40009747f83f2505ed9e538cb236d2491c7c7ef215dc7ab8b07930bd5e45ba",
        0.040095992766888466),
    (2, "mixed", 0.0): (
        "d76ac258fafbc167776ff8ef4785f8ae578e41df48daa8d498c415543c260427",
        "1c48e485063b354b9c2db5ccba18d12822c85deaaf8264b8754b51888e5826d8",
        0.36487615412488184),
    (2, "mixed", 0.2): (
        "fc2c03e3df5b2800dd2dcaca784d0b00e46c4c0ed18cfa065cb38ed83d9720b6",
        "59103888d81fb0c9499cdda9e6167855ff79f890ade0ef75671cc89049f5b826",
        0.29882788746611577),
    (2, "raw", 0.0): (
        "aff2ee97df8da877333f9b0dd0763d5bda931572a7b1b4e2cc455d6102f8c8d6",
        "8229cb86035ccdbd06777cfd5a9af660a5497226f2fa69fbaa563296c694c91c",
        0.3988336718621782),
    (2, "raw", 0.2): (
        "1f8bdaf2f387e28550db0377e537bca1bdae90a247e85ffd4dc80ec6798d0bce",
        "618f08ca03923bb77c6582efd4137b5a2cbb69eaedf56622f3f826227a4f47dc",
        0.17229236804781012),
}


def chsh_seed(n, kind, bias):
    return [601, n, ("binary", "bounded").index(kind), int(round(10 * bias))]


def ms_seed(n, kind, bias):
    return [602, n, ("projective", "mixed", "raw").index(kind), int(round(10 * bias))]


@pytest.mark.parametrize("n, kind, bias", list(CHSH_PINS))
def test_random_chsh_strategy_is_pinned(n, kind, bias):
    ops_digest, next_draw = CHSH_PINS[(n, kind, bias)]
    rng = np.random.default_rng(chsh_seed(n, kind, bias))
    strat = random_chsh_strategy(n, rng, kind=kind, trace_bias=bias)
    assert digest([*strat.alice, *strat.bob]) == ops_digest
    assert rng.random() == next_draw


@pytest.mark.parametrize("n, kind, bias", list(MS_PINS))
def test_random_magic_square_strategy_is_pinned(n, kind, bias):
    povm_digest, bob_digest, next_draw = MS_PINS[(n, kind, bias)]
    rng = np.random.default_rng(ms_seed(n, kind, bias))
    strat = random_magic_square_strategy(n, rng, kind=kind, trace_bias=bias)
    assert digest(strat.bob_observables[v] for v in VARIABLES) == bob_digest
    assert rng.random() == next_draw
    povms = np.stack([strat.alice_povms[q] for q in MS_QUESTIONS])
    if kind == "raw":
        assert digest(povms) == povm_digest
    else:
        ref = reference_ms_povms(n, np.random.default_rng(ms_seed(n, kind, bias)), kind, bias)
        assert digest(ref) == povm_digest
        assert np.abs(povms - ref).max() <= 1e-14

