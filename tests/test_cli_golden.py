"""Golden CLI outputs: a sha256 fingerprint of every file small runs write.

The fingerprints pin the bytes of every output file, config echoes
included, for all four commands given through flags and through
--config.  Each fingerprint is the first 128 bits of the file's sha256
in hex.  They were recorded with numpy 2.4.6 on x86-64 Linux, before
the CLI options moved into one table; a float that moves at round-off
changes its file's digest.  Every case runs in its own working
directory with the relative output directory ``out``, so the echoed
``out`` is stable.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from qwjumps.cli_runner import main

# case id -> (argv, config-file object or None)
CASES = {
    "seq-flags": (["seq", "--protocol", "fibonacci", "--tmax", "300"], None),
    "seq-file": (
        ["seq"],
        {"protocol": "thue-morse", "tmax": 200, "stride": 7, "tau_max": 20},
    ),
    "seq-constant": (["seq", "--tmax", "60"], None),
    "seq-random": (["seq", "--protocol", "random", "--tmax", "150"], None),
    "seq-random-rng-seed": (
        ["seq", "--protocol", "random", "--rng-seed", "7", "--tmax", "150"],
        None,
    ),
    "walk-flags": (
        ["walk", "--protocol", "fibonacci", "--coin", "K", "--theta", "0.3",
         "--tmax", "120", "--stride", "7"],
        None,
    ),
    "walk-file": (
        ["walk"],
        {"protocol": "rudin-shapiro", "theta": 1, "tmax": 80, "seed_symbol": "1"},
    ),
    "walk-classical": (
        ["walk", "--classical", "--protocol", "periodic", "--tmax", "60"],
        None,
    ),
    "walk-random-carpet": (
        ["walk", "--protocol", "random", "--carpet", "--tmax", "40"],
        None,
    ),
    "walk-random-rng-seed": (
        ["walk", "--protocol", "random", "--rng-seed", "3", "--tmax", "50"],
        None,
    ),
    "carpet-flags": (
        ["carpet", "--protocol", "periodic", "--coin", "K", "--tmax", "30"],
        None,
    ),
    "carpet-file": (
        ["carpet"],
        {"protocol": "fibonacci", "theta": 0.4, "tmax": 25, "seed_symbol": 1},
    ),
    "sweep-jobs-1": (
        ["sweep", "--theta", "0.3", "1.1", "--protocol", "random", "fibonacci",
         "--coin", "both", "--seed-symbol", "both", "--tmax", "60", "--jobs", "1"],
        None,
    ),
    "sweep-jobs-2": (
        ["sweep", "--theta", "0.3", "1.1", "--protocol", "random", "fibonacci",
         "--coin", "both", "--seed-symbol", "both", "--tmax", "60", "--jobs", "2"],
        None,
    ),
    "sweep-file": (
        ["sweep"],
        {"protocol": "standard", "theta": 0.5, "coin": "H", "tmax": 50,
         "full_scale": False},
    ),
    "sweep-random-rng-seed": (
        ["sweep", "--theta", "0.7", "--protocol", "random", "--coin", "K",
         "--seed-symbol", "0", "--rng-seed", "11", "--tmax", "40"],
        None,
    ),
}

FINGERPRINTS = {
    "seq-flags": {
        "acf.csv": "c217857b5177c199b45934a1bfea3790",
        "config.json": "71906d9e229ae5046b7df21df7b91a9c",
        "lzc_curve.csv": "0e4d8f51810a847a6a4670fa0cf16e60",
        "ones_fraction.csv": "8678ab9472ddb4c23efae5a55f3c8240",
        "psd.csv": "f301f0eb14a9779946f345194e4d4f95",
        "sequence.csv": "ea08a00a9a74f50ace35307277a267e2",
        "sequence.json": "440809401caac7f7d29052e339430149",
    },
    "seq-file": {
        "acf.csv": "5c736eac204207a0cab578ad71b50813",
        "config.json": "25c1df436775e869ef07abf096339265",
        "lzc_curve.csv": "8c05634ad455a917c2523d808be84693",
        "ones_fraction.csv": "ba10dc5a530dba947a0ab13f99490a9d",
        "psd.csv": "9d2282061914570afdca7c128686df64",
        "sequence.csv": "0e6a8d70e3fba32887422c73c00845f4",
        "sequence.json": "a7fdeff6725aafa11e6842ffe79365af",
    },
    "seq-constant": {
        "acf.degenerate.txt": "38d78214fa6cedae23fa350261cdbce2",
        "config.json": "101e3059cd8ecd46f6736ee16f5fdf6a",
        "lzc_curve.csv": "67be90451c218a292777f97df95b4497",
        "ones_fraction.csv": "e51b1ef05e3ba10bfb6d8817b36996ee",
        "psd.degenerate.txt": "544036204794878770de91a76c37a9b9",
        "sequence.csv": "5edfeaf2198f9dca52cbfdb088ac438c",
        "sequence.json": "ffbdad5f183164e3f3b3266d59267231",
    },
    "seq-random": {
        "acf.csv": "a1bb9e3fc1aa4a413753e7460f4661ba",
        "config.json": "de03be0673911c557073ffed397915ad",
        "lzc_curve.csv": "2dc0a681c627233260e794f0162fe878",
        "ones_fraction.csv": "16ccdcba8467e8cd2d6776a7fe100411",
        "psd.csv": "804c7ef2a8d9f1720e118fa4c93ba436",
        "sequence.csv": "1bad3e0b608b771e5ed586f5a5986580",
        "sequence.json": "0d2128866b4337977e4df56c3ed06585",
    },
    "seq-random-rng-seed": {
        "acf.csv": "5274143d716c41e188f299f186f796d8",
        "config.json": "4e16bd5875c1f98dee98f1902e46c9c5",
        "lzc_curve.csv": "0ecd58e50d307fc40917c1d47ee048d8",
        "ones_fraction.csv": "cf65e7683feff0524d58e420b5b723ce",
        "psd.csv": "fcab2d78e06132a0d40145aff4f3b0a5",
        "sequence.csv": "b33b95d4cf4aeaefe3f2efbc6c8333e0",
        "sequence.json": "3bcd040784e0df0b05b320e052458349",
    },
    "walk-flags": {
        "config.json": "ae56e3ac54462ebe439912c2001578a7",
        "fit.json": "6fa7002c0eca5688d3f735783011ea2b",
        "observables.csv": "22f05769784b4c1064ab8f6328a9c9ec",
    },
    "walk-file": {
        "config.json": "aeb5907324b0af7407dd7ac1cdaa1df8",
        "fit.json": "f165e6bed5e937f942b11ff51622425b",
        "observables.csv": "2e5e03f0579f107439408295a0504975",
    },
    "walk-classical": {
        "config.json": "8944c32f87377764e1634098deac0675",
        "fit.json": "ed937be4a503c21d0e2af3c06ba18b3a",
        "observables.csv": "726c70b1fca85b18d8b4602a50b9adef",
    },
    "walk-random-carpet": {
        "carpet.csv": "287c2f304b1485f95945d7fa7caca8e3",
        "config.json": "ee9798679755123e8b9e4c8a663de5f5",
        "fit.json": "8b9d3d1dc9a83339ad99c184847a3df1",
        "observables.csv": "d8022e6529a8bbc3831ba759c121934e",
    },
    "walk-random-rng-seed": {
        "config.json": "6e5be415fd6168df7d94a6d88c6c6500",
        "fit.json": "30371d174ea3d5a4934f47ba71b196c2",
        "observables.csv": "3a458f1a0e2084198516acf056cc5848",
    },
    "carpet-flags": {
        "carpet.csv": "82f439e72e6913ada9ec8798625137fe",
        "config.json": "9ea6ed45311042c0c914ae8fbabeb429",
    },
    "carpet-file": {
        "carpet.csv": "3f577731ce93682ba275c85ff8a4fb33",
        "config.json": "cb4f9f3111dd9c964c5a2bb4fbeafcf7",
    },
    "sweep-jobs-1": {
        "alpha_cw_H.csv": "7ad3bd828d5aca78539064312e6faea5",
        "alpha_cw_K.csv": "7ad3bd828d5aca78539064312e6faea5",
        "alpha_qw_H.csv": "0391a0a0aea03e28d802be0d1aece230",
        "alpha_qw_K.csv": "567a53610b8de6087c60fdfe68ceba5d",
        "sweep_config.json": "d50403a60b32bb03f2e20aeeea728c4f",
    },
    "sweep-jobs-2": {
        "alpha_cw_H.csv": "7ad3bd828d5aca78539064312e6faea5",
        "alpha_cw_K.csv": "7ad3bd828d5aca78539064312e6faea5",
        "alpha_qw_H.csv": "0391a0a0aea03e28d802be0d1aece230",
        "alpha_qw_K.csv": "567a53610b8de6087c60fdfe68ceba5d",
        "sweep_config.json": "5d8ef26ca70d3b46a0d56b86eaaa5d6f",
    },
    "sweep-file": {
        "alpha_cw_H.csv": "db045d0497fb212ded67b8c3eeaf3d77",
        "alpha_qw_H.csv": "2826476154d1829174a517d295751995",
        "sweep_config.json": "13ad1484f30c7abb28dae619921ecb04",
    },
    "sweep-random-rng-seed": {
        "alpha_cw_K.csv": "6e58a48080444430d8d1daac63203e92",
        "alpha_qw_K.csv": "07f219e42bebc3e357c38bd68342b6aa",
        "sweep_config.json": "12b53aa8f3530f94365b2d06a23cb4bb",
    },
}


def fingerprints(tmp_path, monkeypatch, argv, file_cfg) -> dict[str, str]:
    """Run one case in tmp_path; map each output file to its fingerprint."""
    monkeypatch.chdir(tmp_path)
    if file_cfg is None:
        argv = [*argv, "--out", "out"]
    else:
        (tmp_path / "run.json").write_text(json.dumps({**file_cfg, "out": "out"}))
        argv = [*argv, "--config", "run.json"]
    assert main(argv) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:32]
        for path in sorted((tmp_path / "out").iterdir())
    }


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_recorded_fingerprints(tmp_path, monkeypatch, case):
    assert fingerprints(tmp_path, monkeypatch, *CASES[case]) == FINGERPRINTS[case]
