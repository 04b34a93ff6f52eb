"""Pinned SHA-256 digests of small fixed-seed runs: a refactor that claims
bit-identical outputs must leave every one of them unchanged.

The runs cover one inference study per scheme (with an entry, a random
one-to-one and a one-to-one difference form), a convergence study, a
policy study that redraws the matrix per replication, the bytes of one
saved batch file, and the CLI's ``estimate``, ``infer`` (q file and
q_spec) and ``policy`` on that batch.  The CLI's stdout is pinned too:
theirs, ``simulate``'s for each study and ``nu``'s for each scheme.
The temporary directory is replaced by ``<tmp>`` in the CLI's stdout
before hashing.  One saved batch per scheme at 8x1400, T=300 is pinned as
well: its (T, d2) permutation tile is 3.4 MB, so drawn in rows of 1 MB it
spans four chunks, where the 10x30 runs span one.  The saved batches are
pinned again as written in two and in four ranges of periods.

The digests depend on the floating-point build.  They were pinned with
numpy 2.4.6 (scipy-openblas 0.3.31), scipy 1.17.1 and Python 3.11.7 on
x86-64; other builds may round differently, and then this test fails
rather than skips.  A change that moves output bits on purpose updates
``PINNED`` and says which entries moved and why.
"""
import hashlib
import json
import sys

import numpy as np
import pytest
import scipy

from matchlearn import (
    OneToMany,
    OneToOne,
    RunConfig,
    TwoSided,
    config_to_dict,
    generate_low_rank,
    main,
    observe,
    run_simulation,
    samplers,
    save_batch,
)

D1, D2, T = 10, 30, 120
STUDIES = {
    "one_to_one": dict(scheme=OneToOne(), q_spec="oto_difference"),
    "one_to_many": dict(scheme=OneToMany(3, 0.8), q_spec="random_oto"),
    "two_sided": dict(scheme=TwoSided(0.8, 0.8, 0.3, 0.3, 0.2), m=6, q_spec="entry(1,2)"),
    "convergence": dict(scheme=TwoSided(0.8, 0.8, 0.3, 0.3, 0.2), study="convergence"),
    "policy": dict(scheme=OneToOne(), study="policy", regenerate_m=True),
}
CLI = {
    "estimate": ["estimate", "{batch}", "{config}", "--out", "{tmp}/estimate"],
    "infer_q_file": ["infer", "{batch}", "{config}", "--q", "{tmp}/q.json",
                     "--out", "{tmp}/infer"],
    "infer_random_oto": ["infer", "{batch}", "{config}", "--q", "random_oto"],
    "policy": ["policy", "{batch}", "{config}", "--out", "{tmp}/policy"],
}
NU = {
    "one_to_one": ["nu", "--scheme", "oto", "--d1", "10", "--d2", "30"],
    "one_to_many": ["nu", "--scheme", "one_to_many", "--d1", "10", "--d2", "30",
                    "--K", "3", "--p0", "0.8"],
    "two_sided": ["nu", "--scheme", "ts", "--d1", "10", "--d2", "30", "--p1", "0.8",
                  "--p2", "0.8", "--c-r", "0.3", "--c-s", "0.3", "--gamma", "0.2"],
}
CHUNKED = {
    "one_to_one": OneToOne(),
    "one_to_many": OneToMany(3, 0.8),
    "two_sided": TwoSided(0.8, 0.8, 0.3, 0.3, 0.2),
}
Q_FILE = '[{"i": 0, "j": 3, "w": 1.5}, {"i": 9, "j": 29, "w": -0.25}, {"i": 4, "j": 0, "w": 2}]'

PINNED = {
    "one_to_one/coverage.csv":
        "fb245b80cf43a7093c0f0c2cf63534273ccaeffaaf9228bb2ca21cb6e77cf840",
    "one_to_one/standardized_stats.csv":
        "69708cd17d05a74f48c77f32bda8734410b8b4735b47c3035934b7abdb13ea2e",
    "one_to_one/summary.json":
        "3cb9729c96982ae63805448f7cdd3ab8448de32b531761f2646ef205e0b97e6a",
    "one_to_many/coverage.csv":
        "8e97f397dd42ec99b69bd7b53721a1a05e91af095c92ea417912f05f176d0333",
    "one_to_many/standardized_stats.csv":
        "291cc6d81b6d9add59fd43bcb751505a3b4b5c349b8950aabc43b791d0504578",
    "one_to_many/summary.json":
        "d3ce8952fea415cb2665ab5dc7808a70187632ff917d6bc3be08314ab79cd288",
    "two_sided/coverage.csv":
        "feaba66da94da9c82e408046db5d0ab5459b9d74b4a664931448c3ae012fc10b",
    "two_sided/standardized_stats.csv":
        "a5f8febedfac0983e5eaf6ccfddd4978dc5a5b519afa9a4881d65d37a5814a8b",
    "two_sided/summary.json":
        "f82bc382f5ad940a4ec5a2020f3432b319dc8cdc25bdaf75ba95275818c150d0",
    "convergence/coverage.csv":
        "20eedb7ea99557fb5e911b012627a9ea040875a34c455acafbde4432f14d7202",
    "convergence/standardized_stats.csv":
        "0dcd3a8d6eeaf020be48c28bcfa47a5b848288dbd674d66dda6bd6f7e97d39b8",
    "convergence/summary.json":
        "1695f4896d27719b87d0bea0401449f61b9c2c7b8d6c4f7ce653e518191d6ece",
    "convergence/trace_rep0.csv":
        "0d7410ee62868ed76154f3d7e9aab327e64b70a27d65284f22fd0df94613718e",
    "convergence/trace_rep1.csv":
        "ba88cb8e48a61f18c4a1732a5d9b01cc678a34bc903d2ad0e7d40d49fe17871b",
    "convergence/trace_rep2.csv":
        "a3e2d6aa116274e7a946c1f5eca145804b80877b185255a619080ee5b8fd84ca",
    "policy/coverage.csv":
        "e0a568119a552f8f9ef37ab0d0f685d6d066641280fac96082d0cde847939b96",
    "policy/standardized_stats.csv":
        "425f38eca93dfe54f4d37ef3a6bd52846911efc247fbb83bab6b0d816661ef4e",
    "policy/summary.json":
        "7539b27f012c619b5aeeffda003cd6c7c977a5c3f64dd1077323a3ad4bfbb41d",
    "batch.jsonl":
        "f6c0d57b86f99d5acaa7ebe6eb88cb187853659776fafe2ca89cebd9f3d422d4",
    "cli/estimate/stdout":
        "0a802f676bf968a38eaaec3d2008d8282fcd4d0eb0b932bde8a5e3116d970f4b",
    "cli/infer_q_file/stdout":
        "4061340a87c4d17cb12415c1ff74227be391e76d803fe20c6d51f1652004eb2d",
    "cli/infer_random_oto/stdout":
        "4cb2ec786a881243433763b272bb87cda9746fa214824ed764bc8715b4acee50",
    "cli/policy/stdout":
        "98cc3f28404f3856d599db9b5d84e86b6421047eee353ca0b9d6a518e289d7d1",
    "cli/estimate/m_init.csv":
        "ba7965bac1fe0475c2bf313f35926f1dc587d13f35c786cd71a4c059b0a8c524",
    "cli/estimate/trace.csv":
        "845049b38a10a26ff813c71ef9ed2908d96dc05a8ca9cdc231ff7699480ffc9a",
    "cli/infer/inference.json":
        "0db8dae2642ee93a473effd59f863b18993bacbd8087cd8373ac18d6c1cbf528",
    "cli/policy/evaluation.json":
        "63324b6fa68c6140d8caf533ff80c2cd39c308201d592f7e479eaef558232a5c",
    "cli/policy/matching.json":
        "89a3d1be3f28a9839265a59a1deea287773eb4027da45e4980f88179cf8c25ed",
    "cli/simulate/one_to_one/stdout":
        "e57ff66113a3674a9d1582d2491204054e081a7e2c83a2fc8a1052a70507b964",
    "cli/simulate/one_to_many/stdout":
        "c4114d20887384520ba8a55f54df885683b3f490f1e52825a1e469e740a7574a",
    "cli/simulate/two_sided/stdout":
        "ecf582aad898057d1f5b9ebb1c119c985278656bd6e7ca729da186af4ca63b31",
    "cli/simulate/convergence/stdout":
        "caa50d5b9204c4ad7523c5411f12d3b2ef3a13933caa23b2ec614c8485c4d441",
    "cli/simulate/policy/stdout":
        "27efc260672d4e863f5708535fac76a428cdf8e4815814f60ac1b670ad995f71",
    "cli/nu/one_to_one/stdout":
        "a303ef9b6d3a461578ae3420d741b6beee3e3176bbf373a89f1f4b6a9ad8c0b6",
    "cli/nu/one_to_many/stdout":
        "4c424d6f05512224d72e9117bffb41f2b56c325d719bed966c8a1aa3e5e9fffc",
    "cli/nu/two_sided/stdout":
        "dbcc0868e19ea8d5ac9d1eaa39ee9b061a187c639989c9dd92ffb6ef9621d995",
    "chunked/one_to_one/batch.jsonl":
        "e4849a237d76f2dd07ab86d808d293f9b1615c46dc9ce481169f87fcce53c6d0",
    "chunked/one_to_many/batch.jsonl":
        "38b5788f2e6560dfeef67e2b7c262df5d06f83b44cb84e899c6879e6bd98e584",
    "chunked/two_sided/batch.jsonl":
        "a65a9e98b2f19ef10ae7521bee531e66988a708cf04f2f9cb634113aa73e9afd",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_stdout(argv, tmp_path, capsys) -> str:
    """Digest of the CLI's stdout for ``argv``, with ``tmp_path`` written as ``<tmp>``."""
    capsys.readouterr()
    assert main(argv) == 0, argv
    return _sha(capsys.readouterr().out.replace(str(tmp_path), "<tmp>").encode())


def saved_batches() -> dict:
    """The pinned saved batches, by the key of their digest."""
    truth = generate_low_rank(D1, D2, 2, 2.0, np.random.default_rng([23, 1]))
    batches = {"batch.jsonl": observe(truth, OneToOne(), T, 0.5, np.random.default_rng([23, 2]),
                                      seed=23)}
    wide = generate_low_rank(8, 1400, 2, 2.0, np.random.default_rng([29, 1]))
    for label, scheme in CHUNKED.items():
        batches[f"chunked/{label}/batch.jsonl"] = observe(
            wide, scheme, 300, 0.5, np.random.default_rng([29, 2]), seed=29)
    return batches


def run_digests(tmp_path, capsys) -> dict[str, str]:
    """Run every pinned study and command under ``tmp_path``; digest each output."""
    out = {}
    for label, kwargs in STUDIES.items():
        outdir = tmp_path / "studies" / label
        cfg = RunConfig(**dict(d1=D1, d2=D2, r=2, T=T, seed=5, m=5, sigma=0.5, scale=2.0,
                               replications=3, outputs=str(outdir)) | kwargs)
        run_simulation(cfg)
        for path in sorted(outdir.iterdir()):
            out[f"{label}/{path.name}"] = _sha(path.read_bytes())
        config = tmp_path / f"simulate_{label}.json"
        config.write_text(json.dumps(config_to_dict(cfg)))
        out[f"cli/simulate/{label}/stdout"] = _cli_stdout(
            ["simulate", str(config), "--out", str(tmp_path / "simulate" / label)],
            tmp_path, capsys)
    for label, argv in NU.items():
        out[f"cli/nu/{label}/stdout"] = _cli_stdout(argv, tmp_path, capsys)

    paths = {"tmp": str(tmp_path), "batch": str(tmp_path / "batch.jsonl"),
             "config": str(tmp_path / "config.json")}
    for key, batch in saved_batches().items():
        path = tmp_path / key.replace("/", "_")
        save_batch(batch, path)
        out[key] = _sha(path.read_bytes())
    (tmp_path / "config.json").write_text(json.dumps({
        "d1": D1, "d2": D2, "r": 2, "T": T, "m": 5, "seed": 23, "sigma": 0.5,
        "scheme": {"kind": "one_to_one"}}))
    (tmp_path / "q.json").write_text(Q_FILE)
    for label, argv in CLI.items():
        out[f"cli/{label}/stdout"] = _cli_stdout([a.format(**paths) for a in argv],
                                                 tmp_path, capsys)
    for sub in ("estimate", "infer", "policy"):
        for path in sorted((tmp_path / sub).iterdir()):
            out[f"cli/{sub}/{path.name}"] = _sha(path.read_bytes())
    return out


def test_outputs_match_pinned_digests(tmp_path, capsys):
    got = run_digests(tmp_path, capsys)
    moved = sorted(k for k in PINNED.keys() | got.keys() if PINNED.get(k) != got.get(k))
    assert not moved, (
        f"{len(moved)} output digests differ from the pinned ones: {moved}; "
        f"running numpy {np.__version__}, scipy {scipy.__version__}, "
        f"Python {sys.version.split()[0]}")


@pytest.mark.parametrize("n", [2, 4])
def test_saved_batches_match_their_pins_when_written_in_several_ranges(tmp_path, monkeypatch, n):
    started, start = [], samplers._start

    def start_and_count(children, *args):
        start(children, *args)
        started.append(children[-1])

    monkeypatch.setattr(samplers, "_SPLIT_ENTRIES", 1)
    monkeypatch.setattr(samplers, "_usable_cpus", lambda: n)
    monkeypatch.setattr(samplers, "_start", start_and_count)
    for key, batch in saved_batches().items():
        path = tmp_path / "batch.jsonl"
        save_batch(batch, path)
        assert _sha(path.read_bytes()) == PINNED[key], key
    assert len(started) == 4 * (n - 1) and all(started)
