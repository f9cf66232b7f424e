"""RPL4xx: flattened processes, honest accumulators, immutable defaults.

``TestFinishBatchRegression`` is the acceptance test for this rule
family: it reintroduces the exact accumulator-shadowing bug PR 7
shipped in ``Medium._finish_batch`` — and that the runtime A/B pins
missed — and asserts the linter refuses it, while accepting the fixed
shape that is in the tree today.
"""

from __future__ import annotations

from rulefixtures import only


class TestGeneratorProcess:
    def test_generator_in_mac_flagged(self, lint_module):
        findings = lint_module(
            "mac/csma.py",
            """
            def contend(self):
                while True:
                    yield self.backoff()
            """,
        )
        assert len(only(findings, "RPL401")) == 1

    def test_one_finding_per_generator(self, lint_module):
        findings = lint_module(
            "net/flow.py",
            """
            def sender(self):
                yield 1.0
                yield 2.0
                yield from self.drain()
            """,
        )
        assert len(only(findings, "RPL401")) == 1

    def test_callback_shape_allowed(self, lint_module):
        findings = lint_module(
            "mac/csma.py",
            """
            def _on_slot(self):
                if self.pending:
                    self.sim.schedule(self.slot_s, self._on_slot)
            """,
        )
        assert only(findings, "RPL401") == []

    def test_generators_fine_in_core(self, lint_module):
        findings = lint_module(
            "core/recovery.py",
            """
            def recover(self):
                yield self.guard_s
            """,
        )
        assert only(findings, "RPL401") == []


class TestFinishBatchRegression:
    """The PR 7 ``_finish_batch`` bug shape, verbatim."""

    BUGGY = """
        class Medium:
            def _finish_batch(self, batch, delivered):
                # BUG: rebinding the caller's accumulator severs it.
                delivered = self._channel.frames_delivered_batch(batch)
                for frame, ok in zip(batch, delivered):
                    if ok:
                        delivered.append(frame)
        """

    FIXED = """
        class Medium:
            def _finish_batch(self, batch, delivered):
                outcomes = self._channel.frames_delivered_batch(batch)
                for frame, ok in zip(batch, outcomes):
                    if ok:
                        delivered.append(frame)
        """

    def test_linter_catches_the_reintroduced_bug(self, lint_module):
        findings = lint_module("mac/medium.py", self.BUGGY)
        hits = only(findings, "RPL402")
        assert len(hits) == 1
        assert "delivered" in hits[0].message
        assert hits[0].context == "Medium._finish_batch"

    def test_the_shipped_fix_is_clean(self, lint_module):
        findings = lint_module("mac/medium.py", self.FIXED)
        assert only(findings, "RPL402") == []


class TestAccumulatorShadow:
    def test_local_accumulator_rebound_in_its_loop_flagged(self, lint_module):
        findings = lint_module(
            "sim/agg.py",
            """
            def collect(rows):
                out = []
                for row in rows:
                    out.append(row.key)
                    out = row.tail()
            """,
        )
        assert len(only(findings, "RPL402")) == 1

    def test_reinit_to_empty_container_allowed(self, lint_module):
        findings = lint_module(
            "sim/agg.py",
            """
            def batches(rows, size):
                chunk = []
                for row in rows:
                    chunk.append(row)
                    if len(chunk) == size:
                        emit(chunk)
                        chunk = []
            """,
        )
        assert only(findings, "RPL402") == []

    def test_counter_reset_to_constant_allowed(self, lint_module):
        findings = lint_module(
            "core/loop.py",
            """
            def passes(rounds):
                stagnant = 0
                for r in rounds:
                    if r.empty:
                        stagnant += 1
                    else:
                        stagnant = 0
            """,
        )
        assert only(findings, "RPL402") == []

    def test_self_referencing_rebind_allowed(self, lint_module):
        findings = lint_module(
            "sim/agg.py",
            """
            def collect(rows):
                parts = []
                for row in rows:
                    parts.append(row)
                parts = sorted(parts)
                parts.append(None)
            """,
        )
        assert only(findings, "RPL402") == []

    def test_rebind_before_any_accumulation_allowed(self, lint_module):
        # A refill shape: a placeholder list replaced
        # wholesale *before* anything was ever appended to it.
        findings = lint_module(
            "sim/wheel2.py",
            """
            def refill(overflow, lo):
                collect = []
                if lo < len(overflow):
                    collect = overflow[lo:]
                collect.extend(drain())
                return collect
            """,
        )
        assert only(findings, "RPL402") == []


class TestMutableDefault:
    def test_mutable_default_flagged(self, lint_module):
        findings = lint_module(
            "net/buf.py",
            """
            def enqueue(frame, pending=[]):
                pending.append(frame)
            """,
        )
        assert len(only(findings, "RPL403")) == 1

    def test_none_default_allowed(self, lint_module):
        findings = lint_module(
            "net/buf.py",
            """
            def enqueue(frame, pending=None):
                pending = [] if pending is None else pending
                pending.append(frame)
            """,
        )
        assert only(findings, "RPL403") == []
