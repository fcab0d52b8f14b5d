"""The ml suite: spec shape, entrypoint contracts, CLI, and caching."""

import json

import pytest

import repro.apps.gemm_stream as gemm_stream
from repro.apps.gemm_stream import GemmWorkload, run_gemm_pipeline
from repro.errors import DCudaUsageError
from repro.exec.__main__ import main
from repro.exec.points import (_ml_cluster, collective_point, gemm_point,
                               train_point)
from repro.exec.suites import build_suite

TINY = dict(kind="flat", num_nodes=2, gpus_per_node=1)
#: Small fat tree (2 nodes x 2 GPUs) whose simulated ML results are
#: pinned exactly below, so a moved timestamp fails tier-1.
SMALL_FAT_TREE = dict(kind="fat_tree", num_nodes=2, gpus_per_node=2)
SMALL_GEMM = dict(m=24, k=6, batch=8, tiles=4)
#: ``(elapsed, gather, ok)`` of ``gemm_point`` per mode on SMALL_FAT_TREE.
GEMM_PINNED = {
    "both": (3.450061632287e-05, 2.3689192099496422e-05, True),
    "compute": (3.3004484304932852e-06, 0.0, True),
    "stream": (3.202528000000004e-05, 0.0, True),
}


class TestBuildSuite:
    def test_default_shape(self):
        suite = build_suite("ml")
        # 1 backend x 2 kinds x (3 collectives + 3 gemm modes + 2 train).
        assert len(suite.specs) == 16
        labels = [s.label for s in suite.specs]
        assert "ml-coll:proxy:flat:ring" in labels
        assert "ml-coll:proxy:fat_tree:hierarchical" in labels
        assert "ml-gemm:proxy:flat:stream" in labels
        assert "ml-train:proxy:fat_tree:65536" in labels

    def test_backend_axis_multiplies_the_suite(self):
        suite = build_suite("ml", backends=("proxy", "device", "stream"))
        assert len(suite.specs) == 48
        for backend in ("proxy", "device", "stream"):
            assert f"ml-train:{backend}:flat:64" in [s.label
                                                     for s in suite.specs]

    def test_kind_subset(self):
        suite = build_suite("ml", topology=("fat_tree",))
        assert len(suite.specs) == 8
        assert all(s.params["kind"] == "fat_tree" for s in suite.specs)

    def test_unknown_kind_rejected(self):
        # The ml story needs flat vs fat_tree; ring is a topo-suite kind.
        with pytest.raises(DCudaUsageError, match="ml topology kind"):
            build_suite("ml", topology=("ring",))

    def test_unknown_backend_rejected(self):
        with pytest.raises(DCudaUsageError, match="comm backend"):
            build_suite("ml", backends=("pigeon",))


class TestEntrypoints:
    @pytest.mark.parametrize("op", ("allreduce", "reduce_scatter",
                                    "all_gather"))
    def test_collective_point_verifies_in_process(self, op):
        result = collective_point(
            dict(TINY, op=op, algorithm="ring", elems=10), {})
        assert result["ok"] and result["elapsed"] > 0
        assert result["algorithm"] == "ring"

    def test_collective_point_rejects_unknown_op(self):
        with pytest.raises(DCudaUsageError, match="collective op"):
            collective_point(dict(TINY, op="scan", elems=4), {})

    def test_gemm_point_bit_identity_in_both_mode(self):
        result = gemm_point(dict(SMALL_FAT_TREE, mode="both",
                                 **SMALL_GEMM), {})
        assert result["ok"]
        assert result["elapsed"] > 0 and result["gather"] > 0
        assert (result["elapsed"], result["gather"],
                result["ok"]) == GEMM_PINNED["both"]

    @pytest.mark.parametrize("mode", ("compute", "stream"))
    def test_gemm_point_exact_per_mode(self, mode):
        result = gemm_point(dict(SMALL_FAT_TREE, mode=mode,
                                 **SMALL_GEMM), {})
        assert (result["elapsed"], result["gather"],
                result["ok"]) == GEMM_PINNED[mode]

    def test_gemm_point_stream_mode_skips_verification(self):
        result = gemm_point(dict(TINY, mode="stream", m=8, k=6,
                                 batch=8, tiles=4), {})
        assert result["ok"] and result["gather"] == 0.0

    def test_train_point_autotunes_and_verifies(self):
        result = train_point(dict(SMALL_FAT_TREE, features=64, steps=2,
                                  algorithm="auto"), {})
        assert result["ok"]
        # On 2 nodes hierarchical pays fewer inter-node latency terms
        # than tree (2 vs 4), so it wins even for a small gradient.
        assert result["algorithm"] == "hierarchical"
        assert result["predicted"] > 0
        assert result["elapsed"] == 8.191777688536733e-05

    def test_train_point_exact_on_large_gradient(self):
        result = train_point(dict(SMALL_FAT_TREE, features=65536,
                                  steps=2, algorithm="auto"), {})
        assert result == {"elapsed": 0.0029775356906160478,
                          "algorithm": "hierarchical",
                          "predicted": 0.00012731285333333333,
                          "ok": True}

    def test_train_point_pinned_algorithm_has_no_prediction(self):
        result = train_point(dict(TINY, features=16, steps=1,
                                  algorithm="ring"), {})
        assert result["ok"] and result["algorithm"] == "ring"
        assert result["predicted"] is None

    def test_ml_cluster_rejects_unknown_kind(self):
        with pytest.raises(DCudaUsageError, match="ml-suite topology"):
            collective_point(dict(kind="ring", elems=4), {})


def test_cli_runs_tiny_ml_suite(tmp_path, capsys):
    rc = main(["run", "ml", "--topology", "flat", "--topo-nodes", "2",
               "--topo-gpus", "1",
               "--cache-dir", str(tmp_path / "cache"),
               "--json", str(tmp_path / "sweep.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ML collectives" in out
    assert "Pipelined GEMM" in out
    assert "Autotuned data-parallel SGD" in out
    assert "NO" not in out  # every exactness/verification cell passed
    record = json.loads((tmp_path / "sweep.json").read_text())
    assert record["suite"] == "ml" and record["tasks"] == 8


def test_ml_results_are_cacheable(tmp_path, capsys):
    args = ["run", "ml", "--topology", "flat", "--topo-nodes", "2",
            "--topo-gpus", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(tmp_path / "sweep.json")]
    assert main(args) == 0
    cold = json.loads((tmp_path / "sweep.json").read_text())
    assert main(args + ["--require-cached"]) == 0
    warm = json.loads((tmp_path / "sweep.json").read_text())
    assert warm["results_digest"] == cold["results_digest"]
    assert warm["cache_hits"] == warm["tasks"]


def test_cli_exits_nonzero_on_failed_verification(capsys, monkeypatch):
    real = gemm_stream.gemm_reference

    def perturbed(wl, workers):
        y = real(wl, workers)
        y[0, 0] += 1.0
        return y

    monkeypatch.setattr(gemm_stream, "gemm_reference", perturbed)
    rc = main(["run", "ml", "--topology", "flat", "--topo-nodes", "2",
               "--topo-gpus", "1", "--executor", "serial", "--no-cache",
               "--no-json"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "NO" in captured.out
    assert "ml-gemm:proxy:flat:both" in captured.err
    # Only the perturbed GEMM check failed.
    assert "ml-train" not in captured.err
    assert "ml-coll" not in captured.err


class TestHostOperandStaging:
    """The GEMM operands are drawn once per launch, shared read-only."""

    #: The ml suite's 8-rank shape: 7 workers x 2048 rows.
    SHAPE = dict(kind="fat_tree", num_nodes=4, gpus_per_node=2)
    WL = GemmWorkload(m=7 * 2048, k=96, batch=32, tiles=8, slots=4)

    @pytest.mark.parametrize("mode,max_draws", (("both", 1),
                                                ("compute", 1),
                                                ("stream", 0)))
    def test_weights_drawn_at_most_once(self, monkeypatch, mode,
                                        max_draws):
        draws = []
        real = gemm_stream._weights

        def counting(wl):
            draws.append(wl)
            return real(wl)

        monkeypatch.setattr(gemm_stream, "_weights", counting)
        run_gemm_pipeline(_ml_cluster(self.SHAPE), self.WL, mode=mode)
        assert len(draws) <= max_draws

    def test_kernel_cannot_write_shared_weights(self, monkeypatch):
        real = gemm_stream._gemm_kernel

        def writing_kernel(rank, w, **kwargs):
            if rank.world_rank == 1:
                w[0, 0] = 0.0
            return (yield from real(rank, w=w, **kwargs))

        monkeypatch.setattr(gemm_stream, "_gemm_kernel", writing_kernel)
        with pytest.raises(ValueError, match="read-only"):
            run_gemm_pipeline(_ml_cluster(SMALL_FAT_TREE),
                              GemmWorkload(**SMALL_GEMM), mode="compute")
