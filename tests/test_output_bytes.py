"""Pinned output bytes of the CLI.

Each case runs one ``proxyifm`` command in process and compares the
sha256 of every file it writes with a recorded digest.  A change that
moves any output byte (exact, seeded Monte Carlo, oracle or sweep) fails
here and has to be announced and re-recorded on purpose.
"""

import hashlib

import pytest

from proxyifm.cli import main

SHIPPED = ("fig2_open", "fig2_blocked", "fig2_tensor_sum_open",
           "fig2_tensor_sum_blocked", "fig3_open", "fig3_blocked_l",
           "fig3_blocked_m", "fringe_sweep")

CASES = {
    **{f"exact-{name}": ("simulate", "--scenario", name, "--mode", "exact")
       for name in SHIPPED},
    "exact-hom_pair": ("simulate", "--scenario", "hom_pair", "--mode",
                       "exact", "--cutoff", "2"),
    **{f"mc-{name}": ("simulate", "--scenario", name, "--mode", "mc",
                      "--shots", "20000", "--seed", "7", "--format", "jsonl")
       for name in ("fig2_blocked", "fig2_tensor_sum_blocked")},
    "mc-hom_pair": ("simulate", "--scenario", "hom_pair", "--mode", "mc",
                    "--cutoff", "2", "--shots", "20000", "--seed", "7",
                    "--format", "jsonl"),
    "oracle-fig2_tensor_sum_blocked": ("oracle", "--scenario",
                                       "fig2_tensor_sum_blocked",
                                       "--cutoff", "1"),
    # No --cutoff: the coherent default, 4 here.
    "oracle-fig3_blocked_l-default": ("oracle", "--scenario", "fig3_blocked_l"),
    "sweep-fringe_sweep": ("sweep", "--scenario", "fringe_sweep", "--from",
                           "0", "--to", "6.283185307179586", "--steps", "32"),
}

# File name (the main output is "out") -> sha256 of its bytes.
DIGESTS = {
    "exact-fig2_blocked": {
        "out":
            "747e53b5d24383150f1916b83d0836c1636828164fedf99a3aa4cf18fafe9a44",
        "out.conditionals.csv":
            "3ac1d95a84af2577e5a924c3cb18f5f09fea253815fea70391be24c6a402dfc0",
    },
    "exact-fig2_open": {
        "out":
            "c5d708ce1f0acef3c64f6b0471f62401ed8a4e58f8f1e75aa40d9e197cfde098",
    },
    "exact-fig2_tensor_sum_blocked": {
        "out":
            "cf7536342a287a694d86a6b19ab5c7b14538506bf43374355806073df47c8c17",
        "out.p_outcome.csv":
            "a5674fd066668189c75984268ef216f6232ee21cff374b6108a65aea247bd43c",
    },
    "exact-fig2_tensor_sum_open": {
        "out":
            "94e57c56317379333319f0e33ec69644332bd35d679892a46a7b1b276ab9595b",
        "out.p_outcome.csv":
            "5c68404e3eb99d2484a14632e8e073edb9266b0ca7d2225e4048f61a667dcfbd",
    },
    "exact-fig3_blocked_l": {
        "out":
            "dbf75dee758eff2da4205c708ea5b4693122bca39536556ea7d5bd51e264989d",
        "out.conditionals.csv":
            "c7db7fb88edb02f60a2685af3c2fe94be107caa11f87f37ae099e8ab5edec72d",
    },
    "exact-fig3_blocked_m": {
        "out":
            "d80357085830ddce9dba93ed61178895b5560c511ae6b940f3a717e7307ac13a",
        "out.conditionals.csv":
            "c7db7fb88edb02f60a2685af3c2fe94be107caa11f87f37ae099e8ab5edec72d",
    },
    "exact-fig3_open": {
        "out":
            "2aeaf6783881848475a161a66b5034bc2aa751ddf7b81a86343359033df8b899",
    },
    "exact-fringe_sweep": {
        "out":
            "c5d708ce1f0acef3c64f6b0471f62401ed8a4e58f8f1e75aa40d9e197cfde098",
    },
    "exact-hom_pair": {
        "out":
            "aae0e46e74a76f692ebe7acfabeeab8fe7b384305b1fec18b6fc48008ecfd4cc",
        "out.marginals.csv":
            "0c7641f7ef8af77ee11c5ff8c4b4b0472fe34e797f7e2b8b296371fd3f043e1b",
    },
    "mc-fig2_blocked": {
        "out":
            "fcec023229aa8176dcec16dbdc4c0cb12f4553f7bcd3f967bc608bedaccdd379",
    },
    "mc-fig2_tensor_sum_blocked": {
        "out":
            "e901d15d41c74f0796ff46075596d3a4093cb2cb12fe20d4dc480e4ad58f1c96",
    },
    "mc-hom_pair": {
        "out":
            "30d367e6fb624564e9500905a48ee96b4e7159ca5cd5cd3c23876329e56dd277",
    },
    "oracle-fig2_tensor_sum_blocked": {
        "out":
            "cb0f4bf08fd9c4bff38908d9e3757b4b9701d605b72fe282fe17c2cc9a156e93",
    },
    "oracle-fig3_blocked_l-default": {
        "out":
            "8f611bc5abab024ec87a67612319af09a71ac9d4636e24630d4c88313b8bc30a",
    },
    "sweep-fringe_sweep": {
        "out":
            "a1b458a60538149e634e398350bdb9c2d6244bad85ba869fc0192b53be39d973",
    },
}


def _digests(argv, tmp_path):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_are_pinned(case, tmp_path, monkeypatch):
    monkeypatch.delenv("PROXYIFM_SEED", raising=False)
    monkeypatch.delenv("PROXYIFM_OUTDIR", raising=False)
    assert _digests(CASES[case], tmp_path) == DIGESTS[case]
