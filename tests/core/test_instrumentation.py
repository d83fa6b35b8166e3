"""Unit tests for the instrumentation collector."""

import pytest

from repro.core import Instrumentation, KernelStats


class TestKernelStats:
    def test_means(self):
        s = KernelStats(instances=4, dispatch_time=8e-6, kernel_time=40e-6)
        assert s.mean_dispatch_us == pytest.approx(2.0)
        assert s.mean_kernel_us == pytest.approx(10.0)

    def test_empty_means_are_zero(self):
        s = KernelStats()
        assert s.mean_dispatch_us == 0.0
        assert s.mean_kernel_us == 0.0
        assert s.dispatch_ratio == 0.0

    def test_dispatch_ratio(self):
        s = KernelStats(instances=1, dispatch_time=3.0, kernel_time=1.0)
        assert s.dispatch_ratio == pytest.approx(0.75)

    def test_merged(self):
        a = KernelStats(2, 1.0, 2.0)
        b = KernelStats(3, 0.5, 1.0)
        m = a.merged(b)
        assert m.instances == 5
        assert m.dispatch_time == 1.5
        assert m.kernel_time == 3.0


class TestInstrumentation:
    def test_record_accumulates(self):
        instr = Instrumentation()
        instr.record("k", 1e-6, 2e-6)
        instr.record("k", 1e-6, 2e-6)
        s = instr["k"]
        assert s.instances == 2
        assert s.kernel_time == pytest.approx(4e-6)

    def test_unknown_kernel_is_empty(self):
        assert Instrumentation()["nope"].instances == 0

    def test_totals(self):
        instr = Instrumentation()
        instr.record("a", 0, 1.0)
        instr.record("b", 0, 2.0)
        assert instr.total_instances() == 2
        assert instr.total_kernel_time() == pytest.approx(3.0)

    def test_merged(self):
        a = Instrumentation()
        a.record("x", 1.0, 1.0)
        a.add_analyzer_time(0.5)
        b = Instrumentation()
        b.record("x", 1.0, 1.0)
        b.record("y", 0.0, 2.0)
        m = a.merged(b)
        assert m["x"].instances == 2
        assert m["y"].instances == 1
        assert m.analyzer_time == 0.5

    def test_table_layout(self):
        instr = Instrumentation()
        instr.record("init", 69e-6, 18e-6)
        text = instr.table(order=["init"], title="Table II")
        assert "Table II" in text
        assert "init" in text
        assert "69.00 us" in text
        assert "18.00 us" in text

    def test_table_paper_columns(self):
        instr = Instrumentation()
        instr.record("k", 1.5e-6, 2.5e-6)
        text = instr.table(
            order=["k", "ghost"], title="T", paper={"k": (100, 1.0, 2.0)}
        )
        header, k_row, ghost_row = text.splitlines()[1:]
        assert "Paper Instances" in header
        measured, published = k_row.split("|")
        assert measured.split() == ["k", "1", "1.50", "us", "2.50", "us"]
        assert published.split() == ["100", "1.00", "us", "2.00", "us"]
        assert ghost_row.split("|")[1].split() == [
            "0", "0.00", "us", "0.00", "us"
        ]
        assert "|" not in instr.table(order=["k"])

    def test_table_includes_missing_kernels_as_zero(self):
        text = Instrumentation().table(order=["ghost"])
        assert "ghost" in text

    def test_table_reports_mean_ipc(self):
        instr = Instrumentation()
        instr.record("a", 2e-6, 4e-6, ipc_time=6e-6)
        instr.record("a", 2e-6, 4e-6, ipc_time=2e-6)
        header, row = instr.table(order=["a"]).splitlines()
        assert "IPC Time" in header
        # instances, then the means of 2, 4 and (6 + 2) / 2 us
        assert row.split() == ["a", "2", "2.00", "us", "4.00", "us",
                               "4.00", "us"]

    def test_merged_is_thread_safe_against_concurrent_recording(self):
        """Merging while both operands are being hammered from other
        threads must neither crash nor produce an inconsistent row
        (instances and times are snapshotted under the same lock)."""
        import threading

        a, b = Instrumentation(), Instrumentation()
        stop = threading.Event()

        def hammer(instr):
            while not stop.is_set():
                instr.record("k", 1e-6, 2e-6, ipc_time=3e-6)
                instr.add_analyzer_time(1e-6)

        threads = [
            threading.Thread(target=hammer, args=(i,), daemon=True)
            for i in (a, b)
        ]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                m = a.merged(b)
                s = m["k"]
                # Per-instance means must stay exact: every recorded
                # instance carried the same (dispatch, kernel, ipc).
                if s.instances:
                    assert s.mean_dispatch_us == pytest.approx(1.0)
                    assert s.mean_kernel_us == pytest.approx(2.0)
                    assert s.mean_ipc_us == pytest.approx(3.0)
                assert m.analyzer_time >= 0.0
        finally:
            stop.set()
            for t in threads:
                t.join()

    def test_snapshot_is_copy(self):
        instr = Instrumentation()
        instr.record("a", 1.0, 1.0)
        snap = instr.stats()
        snap["a"].instances = 99
        assert instr["a"].instances == 1
