"""Every artifact is written through ``corpus.open_output``: whole or not at all."""

import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

from d4kit import (
    Document,
    DocumentSet,
    EmbeddingMatrix,
    KmeansConfig,
    kmeans_spherical,
    write_clustering,
    write_corpus,
    write_embeddings,
)
from d4kit import cli
from d4kit import embed as embed_mod
from d4kit.corpus import open_output
from d4kit.select import SelectionResult

OLD = b"older artifact\n"


def _leftovers(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


def _emb(n=12, d=4) -> EmbeddingMatrix:
    rng = np.random.default_rng(0)
    v = rng.normal(size=(n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return EmbeddingMatrix(ids=tuple(f"r{i}" for i in range(n)), vectors=v, normalized=True)


class _Unconvertible:
    def __array__(self, *args, **kwargs):
        raise RuntimeError("cannot convert")


def _fail_selection(monkeypatch, out: Path):
    calls = []

    def encode(text):
        calls.append(text)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return f'"{text}"'

    monkeypatch.setattr(cli, "encode_basestring_ascii", encode)
    result = SelectionResult(
        method="random",
        r_target=1.0,
        kept_ids=tuple(f"d{i}" for i in range(5)),
        scores=(0.0,) * 5,
        n_source=5,
        fingerprint="0" * 16,
    )
    cli._write_selection(out, result)


def _fail_corpus(monkeypatch, out: Path):
    docs = [Document(id=f"d{i}", text="t", token_count=1) for i in range(4)]
    docs.append(Document(id="bad", text="t", token_count=1, meta={"x": object()}))
    write_corpus(DocumentSet.from_documents(docs), str(out / "corpus.jsonl"))


def _fail_embeddings(monkeypatch, out: Path):
    def boom(n):
        raise RuntimeError("failed after the header")

    monkeypatch.setattr(embed_mod, "_block_step", boom)
    write_embeddings(_emb(), str(out / "embeddings.d4em"))


def _fail_clustering(monkeypatch, out: Path):
    c = kmeans_spherical(_emb(), KmeansConfig(k=3))
    # The header and centroids are written before the distances fail to
    # convert; a writer takes only a Clustering, so its field is swapped.
    object.__setattr__(c, "distance", _Unconvertible())
    write_clustering(c, str(out / "clustering.d4km"))


WRITERS = {
    "selection.jsonl": (_fail_selection, KeyboardInterrupt),
    "corpus.jsonl": (_fail_corpus, TypeError),
    "embeddings.d4em": (_fail_embeddings, RuntimeError),
    "clustering.d4km": (_fail_clustering, RuntimeError),
}


class TestFailedWrite:
    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_leaves_no_new_file(self, tmp_path, monkeypatch, name):
        fail, error = WRITERS[name]
        with pytest.raises(error):
            fail(monkeypatch, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_leaves_older_file_intact(self, tmp_path, monkeypatch, name):
        fail, error = WRITERS[name]
        (tmp_path / name).write_bytes(OLD)
        with pytest.raises(error):
            fail(monkeypatch, tmp_path)
        assert (tmp_path / name).read_bytes() == OLD
        assert _leftovers(tmp_path) == []


class TestOpenOutput:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(OLD)
        with open_output(path) as fh:
            fh.write("new\n")
            assert path.read_bytes() == OLD  # not visible until the block ends
        assert path.read_bytes() == b"new\n"
        assert _leftovers(tmp_path) == []

    def test_mode_bits_match_open(self, tmp_path):
        old_umask = os.umask(0o027)
        try:
            with open(tmp_path / "by_open", "w"):
                pass
            with open_output(tmp_path / "by_helper", "wb") as fh:
                fh.write(b"x")
        finally:
            os.umask(old_umask)
        want = stat.S_IMODE(os.stat(tmp_path / "by_open").st_mode)
        assert want == 0o640
        assert stat.S_IMODE(os.stat(tmp_path / "by_helper").st_mode) == want

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []

        def drain():
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        with open_output(fifo, "wb") as fh:
            fh.write(b"through the pipe\n")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b"through the pipe\n"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert _leftovers(tmp_path) == []

    def test_symlink_is_written_through(self, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "out.txt"
        target.write_bytes(OLD)
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        with open_output(link) as fh:
            fh.write("new\n")
        assert link.is_symlink()
        assert target.read_bytes() == b"new\n"
        assert _leftovers(tmp_path) == [] and _leftovers(tmp_path / "real") == []

    def test_dangling_symlink_creates_its_target(self, tmp_path):
        link = tmp_path / "link.txt"
        link.symlink_to(tmp_path / "later.txt")
        with open_output(link) as fh:
            fh.write("new\n")
        assert link.is_symlink()
        assert (tmp_path / "later.txt").read_bytes() == b"new\n"

    def test_error_names_the_artifact(self, tmp_path):
        with pytest.raises(FileNotFoundError) as info:
            with open_output(tmp_path / "missing" / "a.txt"):
                pass
        assert info.value.filename == str(tmp_path / "missing" / "a.txt")
