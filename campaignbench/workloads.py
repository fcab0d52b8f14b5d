"""The campaign benchmark's workloads: spec lists and point checks.

Each workload is a slice of the paper's evaluation built from the
public suite builders in ``repro.exec.suites``, so the benchmark runs
exactly the specs the figure CLIs run.
"""

#: stencil exercises numpy staging, the >=64-flow link sweep and the
#: MPI-CUDA baseline; overlap isolates scheduler dispatch, runtime
#: queues and notification matching (modelled compute); ml builds 48
#: clusters and goes through the routed fabric, the collectives and the
#: queue-bypassing device/stream backends.  README.md has the details.
NAMES = ("stencil", "overlap", "ml")


def build_specs(name):
    """The workload's spec list in canonical (unshuffled) order."""
    from repro.exec.suites import build_suite

    if name == "stencil":
        return build_suite("fig10", node_counts=(1, 2)).specs
    if name == "overlap":
        return build_suite("fig7").specs
    if name == "ml":
        return build_suite("ml", backends=("proxy", "device",
                                           "stream")).specs
    raise ValueError(f"unknown workload {name!r}; choose from "
                     f"{', '.join(NAMES)}")


def point_ok(result):
    """In-process verification flag of one point's result.

    ``weak_scaling_point`` raises on a reference mismatch instead (its
    ``assert_allclose``); the ml entrypoints return an ``ok`` flag; the
    overlap points carry no check of their own and rest on the digest.
    """
    if isinstance(result, dict):
        return bool(result.get("ok", True))
    return True
