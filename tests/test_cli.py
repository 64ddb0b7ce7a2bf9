import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import textwrap
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import d4kit
import d4kit.embed as embed_mod
from d4kit.cli import _write_selection, build_parser, run, stage_seed
from d4kit.select import SelectionResult, select_random, ssl_prototypes


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _synth(tmp_path, name="corpus", **kw) -> Path:
    out = tmp_path / name
    args = [
        "synth", "--out", str(out), "--seed", "1",
        "--n-topics", "4", "--docs-per-topic", "25",
        "--template-groups", "3", "--dupes-per-group", "4",
        "--mutation-rate", "0.0", "--min-len", "30", "--max-len", "60",
    ]
    for k, v in kw.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    assert run(args) == 0
    return out / "corpus.jsonl"


def _write_empty_pair(base: Path) -> tuple[str, str]:
    """A 0-row ``.d4em`` and a matching 0-point ``.d4km`` (k = 1, d = 8)."""
    emb, km = base / "empty.d4em", base / "empty.d4km"
    d4kit.write_embeddings(
        d4kit.EmbeddingMatrix(ids=(), vectors=np.zeros((0, 8), dtype=np.float32), normalized=True), str(emb)
    )
    d4kit.write_clustering(
        d4kit.Clustering(centroids=np.eye(1, 8), assignment=np.zeros(0, dtype=np.intp), distance=np.zeros(0)),
        str(km),
    )
    return str(emb), str(km)


def _embed(tmp_path, corpus: Path, name="emb", dim="32") -> Path:
    out = tmp_path / name
    assert run(["embed", "--corpus", str(corpus), "--dim", dim, "--seed", "1", "--out", str(out)]) == 0
    return out / "embeddings.d4em"


class TestUsage:
    def test_no_arguments_exits_1(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_extreme_seeds_accepted(self, tmp_path):
        # Stage-seed fanout can produce any 64-bit value; every consumer
        # must accept the full range, including a negative user seed.
        for seed in ("-1", str(2**63 - 1)):
            out = tmp_path / f"s{seed}"
            assert run(
                [
                    "synth", "--out", str(out / "c"), "--seed", seed,
                    "--n-topics", "2", "--docs-per-topic", "3",
                ]
            ) == 0
            assert run(
                [
                    "minhash", "--corpus", str(out / "c" / "corpus.jsonl"),
                    "--seed", seed, "--out", str(out / "m"),
                ]
            ) == 0

    def test_unknown_subcommand_exits_1(self):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag_exits_1(self):
        assert run(["cost", "--nonsense", "1"]) == 1

    def test_help_exits_0(self):
        assert run(["--help"]) == 0


class TestCost:
    def test_reported_gains(self, capsys):
        code = run(
            [
                "cost",
                "--baseline-gpu-hours", "21500",
                "--fraction-saved", "0.20",
                "--embed-gpu-hours", "888",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "naive_gain_gpu_hours=4300" in out
        assert "overall_gain_gpu_hours=3412" in out

    def test_missing_required_flag(self):
        assert run(["cost", "--baseline-gpu-hours", "10"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--baseline-gpu-hours", "nan"],
            ["--baseline-gpu-hours", "inf"],
            ["--baseline-gpu-hours", "10", "--embed-gpu-hours", "nan"],
            ["--baseline-gpu-hours", "inf", "--embed-gpu-hours", "inf"],
            ["--baseline-gpu-hours", "10", "--cpu-gpu-hours", "inf"],
        ],
    )
    def test_non_finite_hours_exit_1(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        code = run(["cost", *flags, "--fraction-saved", "0.2", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
        assert not out.exists()

    def test_overflowing_gain_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["cost", "--baseline-gpu-hours", "1", "--fraction-saved", "0.5", "--embed-gpu-hours", "1e308",
                    "--cpu-gpu-hours", "1e308", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "got -inf" in captured.err
        assert not out.exists()


# Modules that only the embedding-space commands need.
EMBEDDING_SPACE = {"d4kit.cluster", "d4kit.embed", "d4kit.select", "d4kit.diagnostics", "d4kit.schedule_cost"}


def _run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this d4kit; it must exit 0."""
    src = str(Path(d4kit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_no_command_loads_scipy(tmp_path):
    # A fresh interpreter, since this one may already have imported scipy.
    # Commands run in one interpreter, so each records the d4kit modules
    # loaded by it and every command before it.
    script = textwrap.dedent(
        """
        import sys
        from d4kit.cli import run

        tmp = sys.argv[1]

        def modules():
            return sorted(m for m in sys.modules if m == "d4kit" or m.startswith("d4kit."))

        loaded = {"import": "scipy" in sys.modules}
        d4kit_loaded = {"import": modules()}

        def check(name, *argv):
            assert run([name, *argv]) == 0, argv
            loaded[name] = "scipy" in sys.modules
            d4kit_loaded[name] = modules()

        check("synth", "--out", f"{tmp}/c", "--seed", "1", "--n-topics", "2",
              "--docs-per-topic", "10", "--min-len", "20", "--max-len", "30")
        corpus = f"{tmp}/c/corpus.jsonl"
        check("minhash", "--corpus", corpus, "--out", f"{tmp}/m")
        check("embed", "--corpus", corpus, "--dim", "16", "--out", f"{tmp}/e")
        emb = f"{tmp}/e/embeddings.d4em"
        check("cluster", "--embeddings", emb, "--k", "3", "--out", f"{tmp}/k")
        clustering = f"{tmp}/k/clustering.d4km"
        check("diagnose", "--embeddings", emb, "--clustering", clustering, "--out", f"{tmp}/g")
        for method, ratios in (("semdedup", ["--r", "0.8"]), ("prototypes", ["--r", "0.8"]),
                               ("d4", ["--r-dedup", "0.8", "--r-proto", "0.8"])):
            check("select", "--embeddings", emb, "--method", method, *ratios,
                  "--k", "3", "--out", f"{tmp}/{method}")
        check("overlap", f"{tmp}/semdedup", f"{tmp}/d4", "--out", f"{tmp}/o")
        check("nn", emb, "--embeddings", emb, "--out", f"{tmp}/nn")
        check("schedule", "--corpus", corpus, "--budget-tokens", "1000", "--out", f"{tmp}/s")
        check("cost", "--baseline-gpu-hours", "10", "--fraction-saved", "0.2")
        print(d4kit_loaded)
        print(loaded)
        """
    )
    proc = _run_fresh(script, str(tmp_path))
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert set(loaded) == {
        "import", "synth", "minhash", "embed", "cluster", "select",
        "diagnose", "overlap", "nn", "schedule", "cost",
    }
    assert not any(loaded.values()), loaded

    d4kit_loaded = {name: set(mods) for name, mods in ast.literal_eval(proc.stdout.splitlines()[-2]).items()}
    assert d4kit_loaded["import"] == {"d4kit", "d4kit.cli", "d4kit.corpus", "d4kit.errors"}
    # synth hashes only its stage seed, through the one hashing module.
    assert d4kit_loaded["synth"] == d4kit_loaded["import"] | {"d4kit.hashing"}
    assert "d4kit.minhash" in d4kit_loaded["minhash"]
    assert not d4kit_loaded["minhash"] & EMBEDDING_SPACE, d4kit_loaded["minhash"]


def test_help_and_usage_errors_load_no_numpy():
    # ``corpus`` imports numpy only to synthesise, so only a command that
    # runs numpy code pays its import; ``cost`` still does, via ``schedule_cost``.
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        from d4kit.cli import run

        loaded = {}
        for argv in (["--help"], ["minhash"], ["cost", "--baseline-gpu-hours", "10", "--fraction-saved", "0.2"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
            loaded[argv[0]] = (code, "numpy" in sys.modules)
        print(loaded)
        """
    )
    loaded = ast.literal_eval(_run_fresh(script).stdout.splitlines()[-1])
    assert loaded["--help"] == (0, False)
    assert loaded["minhash"][1] is False and loaded["minhash"][0] != 0
    assert loaded["cost"] == (0, True)


# One command in a fresh interpreter: its exit code, whether it loaded
# OpenSSL's hashlib backend, and the numpy submodules it loaded beyond those
# a bare ``import numpy`` loads (numpy 1.x loads ``numpy.ma`` there).
_IMPORT_PROBE = textwrap.dedent(
    """
    import sys
    import numpy

    bare = set(sys.modules)
    from d4kit.cli import run

    code = run(sys.argv[1:])
    extra = sorted(m for m in set(sys.modules) - bare if m.startswith("numpy."))
    print(repr((code, "_hashlib" in sys.modules, extra)))
    """
)


def _probe_imports(argv: list[str]) -> tuple[int, bool, list[str]]:
    return ast.literal_eval(_run_fresh(_IMPORT_PROBE, *argv).stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "--corpus", "{corpus}", "--embedder", "external", "--embeddings", "{embeddings}"],
        ["nn", "{embeddings}", "--embeddings", "{embeddings}"],
        ["diagnose", "--embeddings", "{embeddings}", "--clustering", "{clustering}"],
        ["overlap", "{selection}", "{selection}"],
        ["cost", "--baseline-gpu-hours", "10", "--fraction-saved", "0.2"],
    ],
    ids=["embed-external", "nn", "diagnose", "overlap", "cost"],
)
def test_command_that_never_hashes_never_loads_openssl(valid_inputs, tmp_path, argv):
    argv = [t.format(**valid_inputs) for t in argv] + ["--out", str(tmp_path / "out")]
    code, hashlib_loaded, _ = _probe_imports(argv)
    assert (code, hashlib_loaded) == (0, False)


@pytest.mark.parametrize(
    "argv",
    [
        ["minhash", "--corpus", "{corpus}"],
        ["embed", "--corpus", "{corpus}"],
        ["select", "--embeddings", "{embeddings}", "--clustering", "{clustering}", "--method", "semdedup",
         "--r", "0.5"],
        ["select", "--embeddings", "{embeddings}", "--clustering", "{clustering}", "--method", "prototypes",
         "--r", "0.5"],
        ["nn", "{embeddings}", "--embeddings", "{embeddings}"],
        ["cluster", "--embeddings", "{embeddings}", "--k", "3"],
        ["select", "--embeddings", "{embeddings}", "--clustering", "{clustering}", "--method", "d4",
         "--r-dedup", "0.9", "--r-proto", "0.5"],
    ],
    ids=["minhash", "embed-hash", "select-semdedup", "select-prototypes", "nn", "cluster", "select-d4"],
)
def test_command_loads_neither_openssl_nor_a_numpy_submodule(valid_inputs, tmp_path, argv):
    # The hashing commands take blake2b and sha256 from CPython's bundled
    # modules, ``nn`` takes its median without ``numpy.ma``, and k-means seeds
    # from ``d4kit.hashing``'s keyed hash. What still draws from
    # ``numpy.random``, and so loads OpenSSL through its ``secrets`` import, is
    # ``synth``, ``select --method random`` and ``schedule --reshuffle``.
    argv = [t.format(**valid_inputs) for t in argv] + ["--out", str(tmp_path / "out")]
    assert _probe_imports(argv) == (0, False, [])


# Every name ``d4kit/__init__`` exported when it imported each module eagerly.
PUBLIC_NAMES = (
    "Clustering", "KmeansConfig", "assign", "default_k", "kmeans_spherical", "objective",
    "read_clustering", "write_clustering",
    "Document", "DocumentSet", "SynthSpec", "count_tokens", "load_corpus", "synthesize_corpus",
    "write_corpus",
    "BinnedScores", "DiagnosticsReport", "FlaggedCluster", "NnReport", "OverlapMatrix",
    "analyze_clustering", "binned_score_analysis", "cluster_balance", "ecdf_mean_distance",
    "find_duplicate_driven_clusters", "nn_to_train", "selection_overlap",
    "EmbedderSpec", "EmbeddingMatrix", "embed_corpus", "feature_hash_embed", "read_embeddings",
    "write_embeddings",
    "FormatError", "ParseError", "ValidationError",
    "DedupResult", "LshConfig", "MinHashSignature", "lsh_dedup", "shingles", "signature",
    "CostModel", "EpochPlan", "embed_cost", "naive_gain", "overall_gain", "plan_epochs",
    "D4Config", "SelectionResult", "d4", "select_random", "semdedup", "ssl_prototypes",
)


class TestPackageNames:
    def test_every_public_name_imports(self):
        assert sorted(d4kit.__all__) == sorted(PUBLIC_NAMES)
        listed = dir(d4kit)
        for name in PUBLIC_NAMES:
            assert name in listed, name
            obj = getattr(d4kit, name)
            assert getattr(obj, "__name__", name) == name
            assert obj.__module__.startswith("d4kit."), (name, obj.__module__)

    def test_star_import(self):
        namespace: dict = {}
        exec("from d4kit import *", namespace)
        assert set(PUBLIC_NAMES) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            d4kit.no_such_name
        # An unknown attribute is how ``from d4kit import <submodule>`` finds submodules.
        from d4kit import graph, hashing

        assert graph.__name__ == "d4kit.graph" and hashing.__name__ == "d4kit.hashing"

    def test_version(self):
        assert d4kit.__version__ == "0.1.0"


def test_synth_corpus_bytes_pinned(tmp_path):
    # The sha256 of ``synth``'s corpus (default sizes, 20 template groups), so
    # that neither the stage seed, the generator nor the writer moves a byte.
    out = tmp_path / "c"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["synth", "--seed", "17", "--template-groups", "20", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "corpus.jsonl").read_bytes()).hexdigest()
    assert digest == "bfaa66f00ec1a0d1d96dd41e98c5a238114b145d0c004b6ad77009425006bcbc"


def test_external_embedder_ignores_dim(tmp_path):
    corpus = _synth(tmp_path)
    emb = _embed(tmp_path, corpus, dim="8")
    out = tmp_path / "ext"
    assert run(
        ["embed", "--corpus", str(corpus), "--embedder", "external", "--embeddings", str(emb),
         "--dim", "1", "--out", str(out)]
    ) == 0
    rows = d4kit.read_embeddings(str(out / "embeddings.d4em"))
    assert rows.d == 8 and rows.n == len(d4kit.load_corpus(str(corpus)))
    assert _read_json(out / "summary.json")["dim"] == 8
    assert _read_json(out / "config.json")["dim"] == 8


def test_chunk_size_with_external_embedder_exits_1(tmp_path, capsys):
    corpus = _synth(tmp_path)
    emb = _embed(tmp_path, corpus, dim="8")
    out = tmp_path / "ext"
    capsys.readouterr()
    assert run(
        ["embed", "--corpus", str(corpus), "--embedder", "external", "--embeddings", str(emb),
         "--chunk-size", "4", "--out", str(out)]
    ) == 1
    assert capsys.readouterr().err.splitlines() == ["error: chunk_size applies only to the hash embedder"]
    assert not (out / "embeddings.d4em").exists()


def test_diagnose_records_default_std_threshold(tmp_path):
    corpus = _synth(tmp_path)
    emb = _embed(tmp_path, corpus)
    out = tmp_path / "k"
    assert run(["cluster", "--embeddings", str(emb), "--k", "3", "--out", str(out)]) == 0
    diag = tmp_path / "g"
    assert run(
        ["diagnose", "--embeddings", str(emb), "--clustering", str(out / "clustering.d4km"), "--out", str(diag)]
    ) == 0
    assert _read_json(diag / "config.json")["std_threshold"] == 0.03


class TestErrors:
    def test_missing_corpus_file_exits_2(self, tmp_path):
        assert run(
            ["minhash", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]
        ) == 2

    def test_bad_embedding_magic_exits_2(self, tmp_path):
        bad = tmp_path / "bad.d4em"
        bad.write_bytes(b"NOPE" + b"\x00" * 40)
        assert run(["cluster", "--embeddings", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_zero_dimension_external_embeddings_exit_2(self, tmp_path, capsys):
        # A one-document corpus whose id the file holds, so only the dimension is wrong.
        first = _synth(tmp_path).read_text(encoding="utf-8").splitlines()[0]
        corpus = tmp_path / "one.jsonl"
        corpus.write_text(first + "\n", encoding="utf-8")
        doc_id = json.loads(first)["id"].encode()
        bad = tmp_path / "dim0.d4em"
        bad.write_bytes(b"D4EM" + struct.pack("<IQII", 1, 1, 0, 0) + struct.pack("<H", len(doc_id)) + doc_id)
        out = tmp_path / "o"
        capsys.readouterr()
        code = run(
            ["embed", "--corpus", str(corpus), "--embedder", "external", "--embeddings", str(bad), "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: dimension must be >= 1 (at byte offset 16)"]
        assert sorted(p.name for p in out.iterdir()) == ["config.json"]

    def test_validation_error_exits_1(self, tmp_path):
        corpus = _synth(tmp_path)
        emb = _embed(tmp_path, corpus)
        assert run(
            ["select", "--embeddings", str(emb), "--method", "random", "--out", str(tmp_path / "s")]
        ) == 1

    def test_malformed_corpus_exits_2(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        assert run(["minhash", "--corpus", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_non_utf8_corpus_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        assert run(["minhash", "--corpus", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_refused_allocation_exits_1_with_one_error_line(self, tmp_path, capsys):
        # 2 x 2**57 float32 is 1 EiB, which numpy refuses at once rather than allocating.
        corpus = tmp_path / "two.jsonl"
        corpus.write_text('{"id": "a", "text": "one"}\n{"id": "b", "text": "two"}\n', encoding="utf-8")
        code = run(["embed", "--corpus", str(corpus), "--dim", str(2**57), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "flags, code, err",
        [([], 1, ["error: cannot cluster an empty matrix"]), (["--no-recluster"], 0, [])],
    )
    def test_d4_on_empty_matrix(self, tmp_path, capsys, flags, code, err):
        emb, km = _write_empty_pair(tmp_path)
        out = tmp_path / "sel"
        argv = ["select", "--embeddings", emb, "--clustering", km, "--method", "d4",
                "--r-dedup", "0.8", "--r-proto", "0.5", *flags, "--out", str(out)]
        assert run(argv) == code
        assert capsys.readouterr().err.splitlines() == err
        if code == 0:
            summary = _read_json(out / "summary.json")
            assert (summary["n_kept"], summary["n_source"]) == (0, 0)
            assert (out / "selection.jsonl").read_bytes() == b""

    def test_nan_embeddings_exit_1_with_one_error_line(self, tmp_path, capsys):
        rows = np.eye(2, 4, dtype="<f4")
        rows[1, 3] = np.nan
        bad = tmp_path / "nan.d4em"
        bad.write_bytes(
            b"D4EM"
            + struct.pack("<IQII", 1, 2, 4, 1)
            + rows.tobytes()
            + b"".join(struct.pack("<H", 1) + i for i in (b"a", b"b"))
        )
        assert run(["cluster", "--embeddings", str(bad), "--k", "1", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_claiming_unallocatable_shape_exits_2_with_one_error_line(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(b"D4EM" + struct.pack("<IQII", 1, 2**40, 2**24, 1),))
        writer.start()
        try:
            assert run(["cluster", "--embeddings", str(fifo), "--out", str(tmp_path / "o")]) == 2
        finally:
            writer.join()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"claimed shape ({2**40}, {2**24})" in err[0]

    @pytest.mark.parametrize(
        "fault, text",
        [
            ("invalid JSON", '{"id": "b", "text": \n'),
            ("BOM", '\ufeff{"id": "b", "text": "x"}\n'),
            ("non-object record", '["b", "x"]\n'),
            ("missing id", '{"text": "x"}\n'),
            ("missing text", '{"id": "b"}\n'),
            ("non-string id", '{"id": 2, "text": "x"}\n'),
            ("non-string text", '{"id": "b", "text": ["x"]}\n'),
            ("lone surrogate", '{"id": "b", "text": "x \\ud800 y"}\n'),
            ("non-object meta", '{"id": "b", "text": "x", "meta": "m"}\n'),
            ("duplicate id", '{"id": "a", "text": "again"}\n'),
        ],
    )
    def test_corpus_readers_report_a_fault_alike(self, valid_inputs, tmp_path, capsys, fault, text):
        # The fault is on line 2, after a valid record, so a streaming reader
        # has already consumed a record when it meets it.
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "fine text"}\n' + text, encoding="utf-8")
        with pytest.raises((d4kit.ParseError, d4kit.ValidationError)) as info:
            d4kit.load_corpus(str(path))
        assert str(info.value).startswith("line 2: ")
        expected = (2 if isinstance(info.value, d4kit.ParseError) else 1, [f"error: {info.value}"])
        readers = [
            ["minhash"],
            ["embed"],
            ["embed", "--embedder", "external", "--embeddings", valid_inputs["embeddings"]],
            ["schedule", "--budget-tokens", "100"],
        ]
        for argv in readers:
            code = run([*argv, "--corpus", str(path), "--out", str(tmp_path / "out")])
            assert (code, capsys.readouterr().err.splitlines()) == expected, argv

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize(
        "argv",
        [
            ["minhash"],
            ["embed", "--dim", "8"],
            ["embed", "--dim", "8", "--chunk-size", "4"],
            ["embed", "--embedder", "external", "--embeddings", "{embeddings}"],
            ["schedule", "--budget-tokens", "100", "--reshuffle"],
        ],
    )
    def test_corpus_from_pipe_is_read_in_one_pass(self, valid_inputs, tmp_path, argv):
        # A pipe can be read only once, so the same bytes as from the file
        # show that the command makes one pass over the corpus.
        argv = [t.format(**valid_inputs) for t in argv]
        corpus = Path(valid_inputs["corpus"])
        assert run([*argv, "--corpus", str(corpus), "--out", str(tmp_path / "from_file")]) == 0
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # A daemon, so a command that never opens the pipe fails the test rather than hangs it.
        writer = threading.Thread(target=fifo.write_bytes, args=(corpus.read_bytes(),), daemon=True)
        writer.start()
        assert run([*argv, "--corpus", str(fifo), "--out", str(tmp_path / "from_pipe")]) == 0
        writer.join(timeout=60)
        assert not writer.is_alive()
        outputs = {
            name: sorted((p.name, p.read_bytes()) for p in (tmp_path / name).iterdir() if p.name != "config.json")
            for name in ("from_file", "from_pipe")
        }
        assert outputs["from_pipe"] == outputs["from_file"]
        assert len(outputs["from_file"]) >= 2

    def test_nn_empty_validation_exits_1_with_one_error_line(self, tmp_path, capsys):
        train = _embed(tmp_path, _synth(tmp_path), dim="8")
        empty = tmp_path / "empty.d4em"
        empty.write_bytes(b"D4EM" + struct.pack("<IQII", 1, 0, 8, 1))
        assert run(["nn", str(empty), "--embeddings", str(train), "--out", str(tmp_path / "nn")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "validation matrix is empty" in err[0]
        assert not (tmp_path / "nn" / "summary.json").exists()

    def _random_selection(self, tmp_path) -> Path:
        emb = _embed(tmp_path, _synth(tmp_path))
        out = tmp_path / "sel"
        assert run(
            ["select", "--embeddings", str(emb), "--method", "random", "--r", "0.5", "--out", str(out)]
        ) == 0
        return out

    @pytest.mark.parametrize(
        "summary",
        [
            "{not json\n",
            json.dumps({"R_target": 0.5, "n_source": 10}),
            json.dumps({"method": 5, "R_target": 0.5, "n_source": 10, "fingerprint": "f"}),
        ],
    )
    def test_overlap_bad_summary_exits_2(self, tmp_path, capsys, summary):
        sel = self._random_selection(tmp_path)
        (sel / "summary.json").write_text(summary, encoding="utf-8")
        capsys.readouterr()
        assert run(["overlap", str(sel), str(sel), "--out", str(tmp_path / "ov")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 1:")

    @pytest.mark.parametrize(
        "fields",
        [
            {"n_source": True}, {"R_target": False}, {"n_source": 55}, {"n_source": -1},
            {"R_target": float("nan")}, {"R_target": 1.5}, {"epsilon_used": "x"}, {"method": 3},
        ],
        ids=[
            "bool-n_source", "bool-R_target", "n_source-below-kept", "negative-n_source",
            "nan-R_target", "R_target-above-1", "str-epsilon_used", "int-method",
        ],
    )
    def test_overlap_contradictory_summary_exits_2(self, tmp_path, capsys, fields):
        # 56 of 112 rows kept: a bool field, or an n_source below the 56, is no summary of them.
        sel = self._random_selection(tmp_path)
        summary = _read_json(sel / "summary.json")
        assert (summary["n_kept"], summary["n_source"]) == (56, 112)
        (sel / "summary.json").write_text(json.dumps({**summary, **fields}), encoding="utf-8")
        capsys.readouterr()
        assert run(["overlap", str(sel), str(sel), "--out", str(tmp_path / "ov")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 1:")
        assert not (tmp_path / "ov" / "overlap.json").exists()

    @pytest.mark.parametrize("command", ["minhash", "overlap"])
    def test_deeply_nested_json_exits_2_with_line(self, tmp_path, capsys, command):
        # 10,000 levels, far past the interpreter's recursion limit, in a corpus line or a summary.
        deep = "[" * 10_000 + "]" * 10_000
        if command == "minhash":
            corpus = tmp_path / "deep.jsonl"
            corpus.write_text(f'{{"id": "a", "text": "x", "meta": {deep}}}\n', encoding="utf-8")
            argv = ["minhash", "--corpus", str(corpus)]
        else:
            sel = self._random_selection(tmp_path)
            (sel / "summary.json").write_text(f'{{"method": {deep}}}', encoding="utf-8")
            argv = ["overlap", str(sel), str(sel)]
        out = tmp_path / "o"
        capsys.readouterr()
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 1:")
        assert sorted(p.name for p in out.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command", ["minhash", "overlap"])
    def test_integer_past_digit_limit_exits_2_with_line(self, tmp_path, capsys, command):
        # json refuses to convert an integer of more digits than sys.get_int_max_str_digits().
        big = "1" * (sys.get_int_max_str_digits() + 1)
        if command == "minhash":
            corpus = tmp_path / "big.jsonl"
            corpus.write_text(f'{{"id": "a", "text": "x", "meta": {{"n": {big}}}}}\n', encoding="utf-8")
            argv = ["minhash", "--corpus", str(corpus)]
        else:
            sel = self._random_selection(tmp_path)
            summary = (sel / "summary.json").read_text(encoding="utf-8")
            assert '"n_source": 112' in summary
            summary = summary.replace('"n_source": 112', f'"n_source": {big}')
            (sel / "summary.json").write_text(summary, encoding="utf-8")
            argv = ["overlap", str(sel), str(sel)]
        out = tmp_path / "o"
        capsys.readouterr()
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 1: invalid JSON")
        assert err[0].endswith(": integer too long")
        assert sorted(p.name for p in out.iterdir()) == ["config.json"]

    def test_nn_non_numeric_score_exits_2_with_line(self, tmp_path, capsys):
        emb = _embed(tmp_path, _synth(tmp_path))
        scores = tmp_path / "scores.jsonl"
        scores.write_text(
            json.dumps({"id": "a", "score": 1.0}) + "\n" + json.dumps({"id": "b", "score": "high"}) + "\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        code = run(
            [
                "nn", str(emb), "--embeddings", str(emb),
                "--scores-before", str(scores), "--scores-after", str(scores),
                "--out", str(tmp_path / "nn"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 2:") and "'high'" in err[0]

    @pytest.mark.parametrize(
        "score", ['NaN', '-Infinity', '"NaN"', '"Infinity"'], ids=["nan", "-inf", "nan-str", "inf-str"]
    )
    def test_nn_non_finite_score_exits_2_with_line(self, tmp_path, capsys, score):
        emb = _embed(tmp_path, _synth(tmp_path))
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"id": "a", "score": 1.0}\n{"id": "b", "score": %s}\n' % score, encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "nn"
        code = run(
            [
                "nn", str(emb), "--embeddings", str(emb),
                "--scores-before", str(scores), "--scores-after", str(scores),
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 2:") and "finite" in err[0]
        assert not (out / "binned.jsonl").exists()

    @pytest.mark.parametrize("score", ['"1.5"', "1" + "0" * 399], ids=["string", "400-digit-int"])
    @pytest.mark.parametrize("command", ["nn", "overlap"])
    def test_score_not_a_finite_json_number_exits_2_with_line(self, tmp_path, capsys, command, score):
        # A numeric string is not a number, and a 400-digit integer overflows a float.
        if command == "nn":
            emb = _embed(tmp_path, _synth(tmp_path))
            scores = tmp_path / "scores.jsonl"
            scores.write_text('{"id": "a", "score": 1.0}\n{"id": "b", "score": %s}\n' % score, encoding="utf-8")
            argv = ["nn", str(emb), "--embeddings", str(emb), "--scores-before", str(scores),
                    "--scores-after", str(scores)]
            out, written = tmp_path / "nn", "binned.jsonl"
        else:
            sel = self._random_selection(tmp_path)
            lines = (sel / "selection.jsonl").read_text(encoding="utf-8").splitlines()
            lines[1] = '{"id": %s, "score": %s, "kept": true}' % (json.dumps(json.loads(lines[1])["id"]), score)
            (sel / "selection.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
            argv = ["overlap", str(sel), str(sel)]
            out, written = tmp_path / "ov", "overlap.json"
        capsys.readouterr()
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 2:") and repr(json.loads(score)) in err[0]
        assert not (out / written).exists()

    @pytest.mark.parametrize(
        "before, after, which",
        [((-1e308, 0.0), (1e308, 0.0), "delta"), ((1e308, 1e308), (0.0, 0.0), "before")],
        ids=["delta-overflows", "before-overflows"],
    )
    def test_nn_overflowing_score_mean_exits_1(self, tmp_path, capsys, before, after, which):
        # Two validation rows at one distance share a bin; each score is finite, and a mean is not.
        emb = tmp_path / "e.d4em"
        d4kit.write_embeddings(d4kit.EmbeddingMatrix(("a", "b"), np.eye(2), True), str(emb))
        scored = {}
        for name, scores in (("before", before), ("after", after)):
            scored[name] = tmp_path / f"{name}.jsonl"
            scored[name].write_text("".join(json.dumps({"id": i, "score": s}) + "\n" for i, s in zip("ab", scores)))
        out = tmp_path / "nn"
        argv = ["nn", str(emb), "--embeddings", str(emb), "--scores-before", str(scored["before"]),
                "--scores-after", str(scored["after"]), "--bins", "1", "--out", str(out)]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: bin 0 mean score {which}") and err[0].endswith("got inf"), err
        assert not (out / "binned.jsonl").exists()

    @pytest.mark.parametrize("score", ["true", "false"])
    def test_nn_boolean_score_exits_2_with_line(self, tmp_path, capsys, score):
        emb = _embed(tmp_path, _synth(tmp_path))
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"id": "a", "score": 1.0}\n{"id": "b", "score": %s}\n' % score, encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "nn"
        code = run(
            [
                "nn", str(emb), "--embeddings", str(emb),
                "--scores-before", str(scores), "--scores-after", str(scores),
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 2:") and "boolean" in err[0]
        assert not (out / "binned.jsonl").exists()

    @pytest.mark.parametrize("command", ["embed", "minhash"])
    @pytest.mark.parametrize("field", ["id", "text"])
    def test_lone_surrogate_in_corpus_exits_2_with_line(self, tmp_path, capsys, command, field):
        rec = {"id": "b", "text": "two words"}
        rec[field] = "x \ud800 y"
        path = tmp_path / "surrogate.jsonl"
        path.write_text(
            json.dumps({"id": "a", "text": "fine text"}) + "\n" + json.dumps(rec) + "\n", encoding="utf-8"
        )
        assert "\\ud800" in path.read_text(encoding="utf-8")
        out = tmp_path / "o"
        assert run([command, "--corpus", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 2:") and "surrogate" in err[0]
        assert list(out.glob("*")) in ([], [out / "config.json"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "semdedup", "--r", "nan"],
            ["--method", "random", "--r", "inf"],
            ["--method", "d4", "--r-dedup", "0.5", "--r-proto=-inf"],
        ],
    )
    def test_select_non_finite_ratio_writes_nothing(self, tmp_path, capsys, flags):
        emb = _embed(tmp_path, _synth(tmp_path))
        capsys.readouterr()
        out = tmp_path / "sel"
        assert run(["select", "--embeddings", str(emb), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_diagnose_non_finite_threshold_writes_nothing(self, tmp_path, capsys, threshold):
        emb = _embed(tmp_path, _synth(tmp_path))
        cl = tmp_path / "cl"
        assert run(["cluster", "--embeddings", str(emb), "--k", "4", "--out", str(cl)]) == 0
        capsys.readouterr()
        out = tmp_path / "dg"
        code = run(
            [
                "diagnose", "--embeddings", str(emb), "--clustering", str(cl / "clustering.d4km"),
                "--std-threshold", threshold, "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--std-threshold" in err[0]
        assert not (out / "config.json").exists()


    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "random"],
            ["--method", "semdedup"],
            ["--method", "prototypes"],
            ["--method", "d4", "--r-dedup", "0.5"],
            ["--method", "d4", "--r-proto", "0.5"],
        ],
    )
    def test_select_missing_ratio_writes_nothing(self, tmp_path, capsys, flags):
        emb = _embed(tmp_path, _synth(tmp_path))
        capsys.readouterr()
        out = tmp_path / "sel"
        assert run(["select", "--embeddings", str(emb), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "required" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("given_flag", ["--scores-before", "--scores-after"])
    def test_nn_one_score_file_writes_nothing(self, tmp_path, capsys, given_flag):
        emb = _embed(tmp_path, _synth(tmp_path))
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"id": "x", "score": 1.0}\n', encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "nn"
        code = run(["nn", str(emb), "--embeddings", str(emb), given_flag, str(scores), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "go together" in err[0]
        assert captured.out == "" and not out.exists()


_ids = st.text(
    alphabet=st.one_of(
        st.characters(exclude_categories=()),  # any code point, lone surrogates included
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\ud800", "\udfff", "é", "\u2028", "🙂"]),
    ),
    max_size=12,
)
_scores = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, 1e16, 0.1, 2.0]),
)


class TestSelectionWriter:
    @given(st.lists(st.tuples(_ids, _scores), max_size=20, unique_by=lambda r: r[0]))
    def test_bytes_equal_json_dumps(self, records):
        result = SelectionResult(
            method="semdedup",
            r_target=0.5,
            kept_ids=tuple(i for i, _ in records),
            scores=tuple(s for _, s in records),
            n_source=len(records),
            fingerprint="0" * 16,
        )
        expected = "".join(
            json.dumps({"id": i, "score": s, "kept": True}) + "\n" for i, s in records
        ).encode("utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            _write_selection(Path(tmp), result)
            assert (Path(tmp) / "selection.jsonl").read_bytes() == expected


class TestPipeline:
    def test_synth_writes_config_and_summary(self, tmp_path):
        corpus = _synth(tmp_path)
        out = corpus.parent
        cfg = _read_json(out / "config.json")
        assert cfg["command"] == "synth"
        assert cfg["n_topics"] == 4
        summary = _read_json(out / "summary.json")
        assert summary["n_docs"] == 4 * 25 + 3 * 4

    def test_minhash_collapses_template_groups(self, tmp_path):
        corpus = _synth(tmp_path)
        out = tmp_path / "mh"
        assert run(["minhash", "--corpus", str(corpus), "--out", str(out), "--seed", "1"]) == 0
        summary = _read_json(out / "summary.json")
        assert summary["n_groups"] >= 3
        assert summary["n_kept"] <= summary["n_source"] - 3 * 3
        groups = [json.loads(l) for l in (out / "groups.jsonl").read_text().splitlines()]
        assert all(len(g["member_ids"]) >= 2 for g in groups)

    def test_minhash_signature_length_is_bands_times_rows(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        out = tmp_path / "mh"
        assert run(["minhash", "--corpus", str(corpus), "--bands", "5", "--out", str(out), "--seed", "1"]) == 0
        cfg = d4kit.LshConfig(bands=5, seed=stage_seed(1, "minhash"))
        assert cfg.num_hashes == 5
        kept = d4kit.lsh_dedup(d4kit.load_corpus(str(corpus)), cfg).kept_ids
        assert (out / "kept_ids.txt").read_text().splitlines() == list(kept)
        assert "num_hashes" not in _read_json(out / "config.json")
        capsys.readouterr()
        assert run(["minhash", "--corpus", str(corpus), "--num-hashes", "5", "--out", str(out)]) == 1
        assert "unrecognized arguments: --num-hashes 5" in capsys.readouterr().err

    def test_select_d4_composition(self, tmp_path):
        corpus = _synth(tmp_path, name="big", docs_per_topic="100")
        emb = _embed(tmp_path, corpus, name="bigemb")
        out = tmp_path / "sel"
        code = run(
            [
                "select", "--embeddings", str(emb), "--method", "d4",
                "--r-dedup", "0.75", "--r-proto", "0.3333",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        summary = _read_json(out / "summary.json")
        assert abs(summary["R_achieved"] - 0.25) <= 0.01
        assert (out / "stage2_clustering.d4km").exists()
        assert (out / "stage2_embeddings.d4em").exists()
        stages = [json.loads(l) for l in (out / "stages.jsonl").read_text().splitlines()]
        assert [s["stage"] for s in stages] == ["semdedup", "prototypes"]
        records = [json.loads(l) for l in (out / "selection.jsonl").read_text().splitlines()]
        assert len(records) == summary["n_kept"]
        assert all(r["kept"] is True for r in records)

    def test_cluster_and_diagnose(self, tmp_path, capsys):
        corpus = _synth(tmp_path)
        emb = _embed(tmp_path, corpus)
        cl = tmp_path / "cl"
        assert run(["cluster", "--embeddings", str(emb), "--k", "8", "--out", str(cl)]) == 0
        summary = _read_json(cl / "summary.json")
        assert summary["k"] == 8
        dg = tmp_path / "dg"
        assert run(
            [
                "diagnose", "--embeddings", str(emb),
                "--clustering", str(cl / "clustering.d4km"),
                "--out", str(dg),
            ]
        ) == 0
        report = _read_json(dg / "report.json")
        assert 0.0 < report["cluster_balance"] <= 1.0
        ecdf_lines = (dg / "ecdf.tsv").read_text().splitlines()
        assert ecdf_lines[0] == "mean_distance\tcumulative_fraction"
        assert len(ecdf_lines) == 1 + 8

    def test_overlap_workflow(self, tmp_path):
        corpus = _synth(tmp_path)
        emb = _embed(tmp_path, corpus)
        sels = []
        for seed in ("5", "6"):
            out = tmp_path / f"sel{seed}"
            assert run(
                [
                    "select", "--embeddings", str(emb), "--method", "random",
                    "--r", "0.5", "--seed", seed, "--out", str(out),
                ]
            ) == 0
            sels.append(str(out))
        out = tmp_path / "ov"
        assert run(["overlap", *sels, "--out", str(out)]) == 0
        matrix = _read_json(out / "overlap.json")
        cells = matrix["cells"]
        assert cells[0][0] == 100.0 and cells[1][1] == 100.0
        assert cells[0][1] == cells[1][0]
        tsv = [line.split("\t") for line in (out / "overlap.tsv").read_text().splitlines()]
        assert tsv[0] == ["", *matrix["labels"]]
        assert [row[0] for row in tsv[1:]] == matrix["labels"]
        assert [[float(cell) for cell in row[1:]] for row in tsv[1:]] == cells

    def test_nn_with_binned_scores(self, tmp_path):
        corpus_a = _synth(tmp_path, name="train")
        corpus_b = _synth(tmp_path, name="valid", seed="9")
        train = _embed(tmp_path, corpus_a, name="temb")
        valid = _embed(tmp_path, corpus_b, name="vemb")
        ids = [json.loads(l)["id"] for l in corpus_b.read_text().splitlines()]
        before = tmp_path / "before.jsonl"
        after = tmp_path / "after.jsonl"
        before.write_text("".join(json.dumps({"id": i, "score": 1.0}) + "\n" for i in ids))
        after.write_text("".join(json.dumps({"id": i, "score": 2.0}) + "\n" for i in ids))
        out = tmp_path / "nn"
        code = run(
            [
                "nn", str(valid), "--embeddings", str(train),
                "--scores-before", str(before), "--scores-after", str(after),
                "--bins", "5", "--out", str(out),
            ]
        )
        assert code == 0
        assert len((out / "nn.jsonl").read_text().splitlines()) == len(ids)
        binned = [json.loads(l) for l in (out / "binned.jsonl").read_text().splitlines()]
        assert len(binned) == 5
        assert all(b["mean_delta"] in (None, 1.0) for b in binned)

    def test_schedule_workflow(self, tmp_path):
        corpus = _synth(tmp_path)
        total = _read_json(corpus.parent / "summary.json")["total_tokens"]
        out = tmp_path / "sch"
        assert run(
            ["schedule", "--corpus", str(corpus), "--budget-tokens", str(2 * total), "--out", str(out)]
        ) == 0
        summary = _read_json(out / "summary.json")
        assert summary["epochs"] == 2.0
        order = (out / "order.txt").read_text().splitlines()
        assert len(order) == 2 * summary["n_docs"]

    def test_schedule_streams_the_plan_of_the_loaded_corpus(self, tmp_path):
        # The command keeps only ids and token counts; its plan is the one
        # ``plan_epochs`` makes from the whole corpus.
        corpus = _synth(tmp_path)
        docs = d4kit.load_corpus(str(corpus))
        budget = docs.total_tokens * 5 // 2 + 1
        out = tmp_path / "sch"
        argv = ["schedule", "--corpus", str(corpus), "--budget-tokens", str(budget), "--reshuffle",
                "--seed", "7", "--out", str(out)]
        assert run(argv) == 0
        plan = d4kit.plan_epochs(docs, budget, seed=stage_seed(7, "schedule"), reshuffle_each_epoch=True)
        assert (out / "order.txt").read_text().splitlines() == list(plan.order)
        assert _read_json(out / "summary.json") == {
            "T_total": budget,
            "T_selected": docs.total_tokens,
            "epochs": plan.epochs,
            "n_docs": len(docs),
            "n_scheduled": len(plan.order),
        }


# ----------------------------------------------------------------------
# robustness: generated argv and byte-level corruptions of valid inputs


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory) -> dict[str, str]:
    base = tmp_path_factory.mktemp("valid")
    steps = [
        ["synth", "--out", str(base / "synth"), "--n-topics", "3", "--docs-per-topic", "6",
         "--template-groups", "2", "--dupes-per-group", "3", "--min-len", "5", "--max-len", "15"],
        ["embed", "--corpus", str(base / "synth" / "corpus.jsonl"), "--dim", "8",
         "--out", str(base / "embed")],
        ["cluster", "--embeddings", str(base / "embed" / "embeddings.d4em"), "--k", "3",
         "--out", str(base / "cluster")],
        ["select", "--embeddings", str(base / "embed" / "embeddings.d4em"), "--method", "random",
         "--r", "1.0", "--out", str(base / "selection")],
    ]
    for argv in steps:
        assert run(argv) == 0
    empty_embeddings, empty_clustering = _write_empty_pair(base)
    return {
        "corpus": str(base / "synth" / "corpus.jsonl"),
        "embeddings": str(base / "embed" / "embeddings.d4em"),
        "clustering": str(base / "cluster" / "clustering.d4km"),
        "selection": str(base / "selection"),
        "scores": str(base / "selection" / "selection.jsonl"),
        "empty_embeddings": empty_embeddings,
        "empty_clustering": empty_clustering,
    }


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name} in an output")


def _run_checked(argv: list[str], out: Path) -> None:
    """Run the CLI in process and check what every run must satisfy."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, err
    for path in out.rglob("*") if out.exists() else ():
        assert not path.name.endswith(".tmp"), f"temp file left behind: {path}"
        if path.suffix in (".json", ".jsonl"):
            text = path.read_text(encoding="utf-8")
            for doc in [text] if path.suffix == ".json" else text.splitlines():
                json.loads(doc, parse_constant=_reject_constant)


# Readers of each input kind; {f} is the corrupted file, {f_dir} its directory.
_READERS = {
    "corpus": [
        ["minhash", "--corpus", "{f}"],
        ["embed", "--corpus", "{f}", "--dim", "8"],
        ["embed", "--corpus", "{f}", "--embedder", "external", "--embeddings", "{embeddings}"],
        ["schedule", "--corpus", "{f}", "--budget-tokens", "200"],
    ],
    "embeddings": [
        ["cluster", "--embeddings", "{f}", "--k", "2"],
        ["select", "--embeddings", "{f}", "--method", "semdedup", "--r", "0.5", "--k", "2"],
        ["select", "--embeddings", "{f}", "--method", "d4", "--r-dedup", "0.8", "--r-proto", "0.7", "--k", "2"],
        ["nn", "{f}", "--embeddings", "{embeddings}"],
        ["nn", "{embeddings}", "--embeddings", "{f}"],
        ["embed", "--corpus", "{corpus}", "--embedder", "external", "--embeddings", "{f}"],
    ],
    "clustering": [
        ["select", "--embeddings", "{embeddings}", "--clustering", "{f}", "--method", "prototypes", "--r", "0.5"],
        ["diagnose", "--embeddings", "{embeddings}", "--clustering", "{f}"],
    ],
    "scores": [
        ["overlap", "{f_dir}", "{selection}"],
        ["nn", "{embeddings}", "--embeddings", "{embeddings}",
         "--scores-before", "{f}", "--scores-after", "{scores}", "--bins", "3"],
    ],
}


@st.composite
def _corruption(draw, data: bytes) -> bytes:
    """One to three truncations, byte overwrites or insertions."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["truncate", "overwrite", "insert"]))
        if kind == "truncate":
            del data[at:]
        elif kind == "overwrite" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        else:
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


# A valid base command per subcommand; drawn options are appended and, since
# argparse keeps an option's last value, may override the base.
_BASES = {
    "synth": ["--n-topics", "2", "--docs-per-topic", "3"],
    "minhash": ["--corpus", "corpus"],
    "embed": ["--corpus", "corpus", "--dim", "8"],
    "cluster": ["--embeddings", "embeddings", "--k", "2"],
    "select": ["--embeddings", "embeddings", "--method", "random", "--r", "0.5"],
    "diagnose": ["--embeddings", "embeddings", "--clustering", "clustering"],
    "overlap": ["selection"],
    "nn": ["embeddings", "--embeddings", "embeddings"],
    "schedule": ["--corpus", "corpus", "--budget-tokens", "100"],
    "cost": ["--baseline-gpu-hours", "10", "--fraction-saved", "0.2"],
}
_INTS = ["-1", "0", "1", "2", "3"]
_FLOATS = ["-1", "0", "1e-9", "0.5", "1", "1.5", "nan", "inf", "-inf", "1e400"]
_PATHS = [
    "corpus", "embeddings", "clustering", "selection", "scores", "empty_embeddings", "empty_clustering",
    "", "missing",
]


def _candidates(action: argparse.Action) -> list[str]:
    """Values to try for an option: mostly of its type, some not."""
    if action.nargs == 0:
        return []
    if action.choices:
        return [*action.choices, "x"]
    if action.type is int:
        return _INTS + ["x", "0.5"]
    if action.type is not None:
        return _FLOATS + ["x"]
    return _PATHS


# Per subcommand, (flag, values) for every option but --out and --help.
# Small values only: a large count asks for a large corpus or matrix, not a defect.
_OPTIONS = {
    name: [
        (action.option_strings[-1], _candidates(action))
        for action in sub._actions
        if action.option_strings and action.option_strings[-1] not in ("--out", "--help")
    ]
    for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
    for name, sub in action.choices.items()
}


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_BASES)))
    argv = [command, *_BASES[command]]
    for _ in range(draw(st.integers(0, 4))):
        flag, values = draw(st.sampled_from(_OPTIONS[command] + [("--nonsense", ["1"])]))
        argv += [flag, draw(st.sampled_from(values))] if values else [flag]
    return argv


class TestRobustness:
    """Any argv and any corrupted input: exit 0, 1 or 2 with at most one
    ``error:`` line, no traceback, strict JSON and no temp file left."""

    @settings(max_examples=100)
    @given(argv=_argv())
    def test_generated_argv(self, valid_inputs, argv):
        argv = [valid_inputs.get(token, token) for token in argv]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            _run_checked(argv + ["--out", str(out)], out)

    @settings(max_examples=100)
    @given(data=st.data(), kind=st.sampled_from(sorted(_READERS)))
    def test_corrupted_input(self, valid_inputs, data, kind):
        source = Path(valid_inputs[kind])
        command = data.draw(st.sampled_from(_READERS[kind]))
        corrupted = data.draw(_corruption(source.read_bytes()))
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "in" / source.name
            f.parent.mkdir()
            f.write_bytes(corrupted)
            if kind == "scores":
                shutil.copy(Path(valid_inputs["selection"]) / "summary.json", f.parent)
            out = Path(tmp) / "out"
            argv = [t.format(f=f, f_dir=f.parent, **valid_inputs) for t in command]
            _run_checked(argv + ["--out", str(out)], out)


# The selects that check the .d4em file a block at a time and keep only its
# ids (random) or its ids and the clustering (prototypes on a given one).
_STREAMED_SELECTS = {
    "random": ["select", "--embeddings", "{f}", "--method", "random", "--r", "{r}"],
    "prototypes": ["select", "--embeddings", "{f}", "--clustering", "{km}", "--method", "prototypes", "--r", "{r}"],
}


def _outcome(argv: list[str], out: Path) -> tuple[int, list[str], list]:
    """Exit code, ``error:`` lines and output files but ``config.json`` of one in-process run."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = run([*argv, "--out", str(out)])
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    files = sorted((p.name, p.read_bytes()) for p in out.iterdir() if p.name != "config.json") if out.exists() else []
    return code, errors, files


def _streamed_and_in_memory(argv: list[str], base: Path):
    """The outcome of ``argv``, and of it with the whole matrix read by ``read_embeddings``, as semdedup reads it."""
    streamed = _outcome(argv, base / "streamed")
    with mock.patch.object(embed_mod, "_scan_embeddings", embed_mod.read_embeddings):
        in_memory = _outcome(argv, base / "in_memory")
    return streamed, in_memory


def _d4em(rows: np.ndarray, ids: list[bytes], flags: int = 1) -> bytes:
    rows = np.asarray(rows, dtype="<f4")
    return (
        b"D4EM" + struct.pack("<IQII", 1, *rows.shape, flags) + rows.tobytes()
        + b"".join(struct.pack("<H", len(i)) + i for i in ids)
    )


def _unit_rows(n: int, d: int = 4) -> np.ndarray:
    rows = np.random.default_rng(n).normal(size=(n, d))
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


def _fault(name: str) -> tuple[bytes, Path | None]:
    """A 9-row .d4em (blocks of 3 rows) with ``name``'s fault, and the clustering bytes to pair with it."""
    rows, ids, flags = _unit_rows(9), [f"d{i}".encode() for i in range(9)], 1
    clustering = d4kit.kmeans_spherical(
        d4kit.EmbeddingMatrix(tuple(i.decode() for i in ids), rows, True), d4kit.KmeansConfig(k=2, seed=0)
    )
    tail = 0
    if name == "nan_after_norm":  # a bad norm in the first block, NaN in the last
        rows[0] *= 1.5
        rows[8, 0] = np.nan
    elif name == "worst_norm":
        rows[1] *= 1.001
        rows[7] *= 1.02
    elif name == "duplicate_id_and_nan":
        ids[3] = ids[2]
        rows[0, 0] = np.inf
    elif name == "id_table_and_nan":
        rows[0, 0] = np.nan
        tail = 1
    elif name == "unnormalized":
        flags = 0
    elif name == "clustering_of_other_n":
        clustering = d4kit.Clustering(
            centroids=clustering.centroids, assignment=clustering.assignment[:8],
            distance=clustering.distance[:8],
        )
    elif name == "inconsistent_distance":
        distance = clustering.distance.copy()
        distance[5] += 0.01
        clustering = d4kit.Clustering(
            centroids=clustering.centroids, assignment=clustering.assignment, distance=distance
        )
    data = _d4em(rows, ids, flags)
    return data[: len(data) - tail], clustering


class TestStreamedSelect:
    """``select --method random`` and ``--method prototypes --clustering``
    never read the whole matrix, yet exit, fail and write as reading it did."""

    @pytest.mark.parametrize(
        "fault, r, random, prototypes",
        [
            ("none", "0.5", (0, ""), (0, "")),
            ("nan_after_norm", "0.5", (1, "finite"), (1, "finite")),
            ("worst_norm", "0.5", (1, "deviates by 2.00e-02"), (1, "deviates by 2.00e-02")),
            ("duplicate_id_and_nan", "0.5", (1, "ids must be unique"), (1, "ids must be unique")),
            ("id_table_and_nan", "0.5", (2, "truncated id entry"), (2, "truncated id entry")),
            ("unnormalized", "0.5", (0, ""), (1, "emb must be a normalized embedding matrix")),
            ("unnormalized", "1.5", (1, "selection ratio"), (1, "r_proto must be")),
            ("clustering_of_other_n", "0.5", (0, ""), (1, "clustering covers 8 points")),
            ("inconsistent_distance", "0.5", (0, ""), (1, "stored distances inconsistent")),
            ("truncated_clustering", "1.5", (1, "selection ratio"), (2, "truncated payload")),
        ],
    )
    def test_faults_reported_in_order(self, tmp_path, fault, r, random, prototypes):
        data, clustering = _fault(fault)
        f, km = tmp_path / "e.d4em", tmp_path / "c.d4km"
        f.write_bytes(data)
        d4kit.write_clustering(clustering, str(km))
        if fault == "truncated_clustering":
            km.write_bytes(km.read_bytes()[:-1])
        for method, (code, text) in (("random", random), ("prototypes", prototypes)):
            argv = [t.format(f=f, km=km, r=r) for t in _STREAMED_SELECTS[method]]
            streamed, in_memory = _streamed_and_in_memory(argv, tmp_path / method)
            assert streamed == in_memory, method
            assert streamed[0] == code, (method, streamed)
            assert len(streamed[1]) == (code != 0) and text in "".join(streamed[1]), (method, streamed)

    @settings(max_examples=100)
    @given(data=st.data(), method=st.sampled_from(sorted(_STREAMED_SELECTS)))
    def test_corrupted_embeddings_fail_as_in_memory(self, valid_inputs, data, method):
        corrupted = data.draw(_corruption(Path(valid_inputs["embeddings"]).read_bytes()))
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "embeddings.d4em"
            f.write_bytes(corrupted)
            argv = [t.format(f=f, km=valid_inputs["clustering"], r="0.5") for t in _STREAMED_SELECTS[method]]
            streamed, in_memory = _streamed_and_in_memory(argv, Path(tmp))
        assert streamed == in_memory

    def test_never_read_the_matrix(self, valid_inputs, tmp_path, monkeypatch):
        def whole_matrix(path):
            raise AssertionError(f"read the whole matrix of {path}")

        monkeypatch.setattr(embed_mod, "read_embeddings", whole_matrix)
        for method, command in _STREAMED_SELECTS.items():
            argv = [t.format(f=valid_inputs["embeddings"], km=valid_inputs["clustering"], r="0.5") for t in command]
            assert run([*argv, "--out", str(tmp_path / method)]) == 0

    def test_outputs_equal_library_calls(self, valid_inputs, tmp_path):
        emb = d4kit.read_embeddings(valid_inputs["embeddings"])
        clustering = d4kit.read_clustering(valid_inputs["clustering"])
        expected = {
            "random": select_random(emb.ids, 0.4, seed=stage_seed(3, "select.random")),
            "prototypes": ssl_prototypes(emb, clustering, 0.4),
        }
        for method, command in _STREAMED_SELECTS.items():
            argv = [t.format(f=valid_inputs["embeddings"], km=valid_inputs["clustering"], r="0.4") for t in command]
            cli_out, lib_out = tmp_path / method / "cli", tmp_path / method / "lib"
            assert run([*argv, "--seed", "3", "--out", str(cli_out)]) == 0
            lib_out.mkdir()
            _write_selection(lib_out, expected[method])
            for p in lib_out.iterdir():
                assert (cli_out / p.name).read_bytes() == p.read_bytes(), (method, p.name)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("method", sorted(_STREAMED_SELECTS))
    def test_embeddings_from_pipe(self, valid_inputs, tmp_path, method):
        # A pipe cannot be read twice, so it is read whole, and the outputs are the file's.
        embeddings = Path(valid_inputs["embeddings"])
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        outputs = {}
        for name, source in (("from_file", embeddings), ("from_pipe", fifo)):
            argv = [t.format(f=source, km=valid_inputs["clustering"], r="0.5") for t in _STREAMED_SELECTS[method]]
            writer = threading.Thread(target=fifo.write_bytes, args=(embeddings.read_bytes(),), daemon=True)
            if source == fifo:
                writer.start()
            outputs[name] = _outcome(argv, tmp_path / name)
            if source == fifo:
                writer.join(timeout=60)
                assert not writer.is_alive()
        assert outputs["from_pipe"] == outputs["from_file"]
        assert outputs["from_file"][0] == 0


# The commands that read one .d4em file a block at a time: ``nn`` its train
# file, ``diagnose`` and the external embedder their ``--embeddings``.
_STREAMED_READS = {
    "nn": ["nn", "{valid}", "--embeddings", "{f}"],
    "diagnose": ["diagnose", "--embeddings", "{f}", "--clustering", "{km}"],
    "embed": ["embed", "--corpus", "{corpus}", "--embedder", "external", "--embeddings", "{f}"],
}


def _streamed_read_inputs(base: Path, n: int = 9) -> dict[str, Path]:
    """A 3-row validation file and an n-document corpus for the ``.d4em`` of ``_fault``."""
    base.mkdir(parents=True, exist_ok=True)
    valid, corpus = base / "valid.d4em", base / "corpus.jsonl"
    valid.write_bytes(_d4em(_unit_rows(3), [b"v0", b"v1", b"v2"]))
    corpus.write_text("".join(json.dumps({"id": f"d{i}", "text": "x"}) + "\n" for i in range(n)))
    return {"valid": valid, "corpus": corpus}


class TestStreamedReads:
    """``nn``, ``diagnose`` and ``embed --embedder external`` never read the
    whole matrix of the file they stream, yet exit, fail and write as reading it did."""

    @pytest.mark.parametrize(
        "fault, nn, diagnose, embed",
        [
            ("none", (0, ""), (0, ""), (0, "")),
            ("nan_after_norm", (1, "finite"), (1, "finite"), (1, "finite")),
            ("worst_norm", (1, "deviates by 2.00e-02"), (1, "deviates by 2.00e-02"), (1, "deviates by 2.00e-02")),
            ("duplicate_id_and_nan", (1, "ids must be unique"), (1, "ids must be unique"), (1, "ids must be unique")),
            ("id_table_and_nan", (2, "truncated id entry"), (2, "truncated id entry"), (2, "truncated id entry")),
            ("unnormalized", (1, "train_emb must be a normalized embedding matrix"),
             (1, "emb must be a normalized embedding matrix"), (0, "")),
            ("clustering_of_other_n", (0, ""), (1, "clustering covers 8 points"), (0, "")),
            ("inconsistent_distance", (0, ""), (1, "stored distances inconsistent"), (0, "")),
            ("truncated_clustering", (0, ""), (2, "truncated payload"), (0, "")),
        ],
    )
    def test_faults_reported_in_order(self, tmp_path, fault, nn, diagnose, embed):
        data, clustering = _fault(fault)
        f, km = tmp_path / "e.d4em", tmp_path / "c.d4km"
        f.write_bytes(data)
        d4kit.write_clustering(clustering, str(km))
        if fault == "truncated_clustering":
            km.write_bytes(km.read_bytes()[:-1])
        inputs = _streamed_read_inputs(tmp_path / "inputs")
        for command, (code, text) in (("nn", nn), ("diagnose", diagnose), ("embed", embed)):
            argv = [t.format(f=f, km=km, **inputs) for t in _STREAMED_READS[command]]
            streamed, in_memory = _streamed_and_in_memory(argv, tmp_path / command)
            assert streamed == in_memory, command
            assert streamed[0] == code, (command, streamed)
            assert len(streamed[1]) == (code != 0) and text in "".join(streamed[1]), (command, streamed)

    def test_missing_ids_reported_as_in_memory(self, tmp_path):
        data, _ = _fault("none")
        f = tmp_path / "e.d4em"
        f.write_bytes(data)
        inputs = _streamed_read_inputs(tmp_path / "inputs", n=11)
        argv = [t.format(f=f, **inputs) for t in _STREAMED_READS["embed"]]
        streamed, in_memory = _streamed_and_in_memory(argv, tmp_path)
        assert streamed == in_memory
        assert streamed[0] == 1 and "missing ids: d10, d9" in streamed[1][0], streamed

    @settings(max_examples=60)
    @given(data=st.data(), command=st.sampled_from(sorted(_STREAMED_READS)))
    def test_corrupted_embeddings_fail_as_in_memory(self, valid_inputs, data, command):
        corrupted = data.draw(_corruption(Path(valid_inputs["embeddings"]).read_bytes()))
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "embeddings.d4em"
            f.write_bytes(corrupted)
            argv = [
                t.format(f=f, km=valid_inputs["clustering"], valid=valid_inputs["embeddings"], corpus=valid_inputs["corpus"])
                for t in _STREAMED_READS[command]
            ]
            streamed, in_memory = _streamed_and_in_memory(argv, Path(tmp))
        assert streamed == in_memory

    def test_never_read_the_matrix(self, valid_inputs, tmp_path, monkeypatch):
        # Only nn's validation file, a copy of the train file, is read whole.
        streamed = tmp_path / "streamed.d4em"
        shutil.copy(valid_inputs["embeddings"], streamed)
        read = embed_mod.read_embeddings

        def whole_matrix(path):
            if Path(path) == streamed:
                raise AssertionError(f"read the whole matrix of {path}")
            return read(path)

        monkeypatch.setattr(embed_mod, "read_embeddings", whole_matrix)
        for command, template in _STREAMED_READS.items():
            argv = [
                t.format(f=streamed, km=valid_inputs["clustering"], valid=valid_inputs["embeddings"], corpus=valid_inputs["corpus"])
                for t in template
            ]
            assert run([*argv, "--out", str(tmp_path / command)]) == 0, command

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("command", sorted(_STREAMED_READS))
    def test_embeddings_from_pipe(self, valid_inputs, tmp_path, command):
        # A pipe cannot be read twice, so it is read whole, and the outputs are the file's.
        embeddings = Path(valid_inputs["embeddings"])
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        outputs = {}
        for name, source in (("from_file", embeddings), ("from_pipe", fifo)):
            argv = [
                t.format(f=source, km=valid_inputs["clustering"], valid=embeddings, corpus=valid_inputs["corpus"])
                for t in _STREAMED_READS[command]
            ]
            writer = threading.Thread(target=fifo.write_bytes, args=(embeddings.read_bytes(),), daemon=True)
            if source == fifo:
                writer.start()
            outputs[name] = _outcome(argv, tmp_path / name)
            if source == fifo:
                writer.join(timeout=60)
                assert not writer.is_alive()
        assert outputs["from_pipe"] == outputs["from_file"]
        assert outputs["from_file"][0] == 0
