"""The tracer's spans nest, their self times add up, and uninstall restores."""

import time

import tracing


class Box:
    def work(self, n):
        time.sleep(0.001 * n)
        return n


def inner(n):
    time.sleep(0.001)
    return n + 1


def test_self_times_add_up_to_each_root():
    tracer = tracing.Tracer()
    traced_inner = tracer.wrap(inner, "inner", count=lambda n: n)

    def outer(n):
        time.sleep(0.001)
        return traced_inner(n) + traced_inner(n)

    traced_outer = tracer.wrap(outer, "outer")
    for n in range(3):
        traced_outer(n)
    roots, self_s, calls, counts, gap = tracing.summarize(tracer.spans, "outer")
    assert roots == 3 and calls == {"outer": 3, "inner": 6}
    assert counts["inner"] == 2 * (0 + 1 + 2)
    assert gap < 1e-9
    total = sum(s[tracing.END] - s[tracing.START] for s in tracer.spans
                if s[tracing.PARENT] < 0)
    assert abs(sum(self_s.values()) - total) < 1e-9
    assert self_s["inner"] > 0 and self_s["outer"] > 0


def test_summarize_keeps_phases_apart():
    tracer = tracing.Tracer()
    tracer.wrap(inner, "train")(1)
    tracer.wrap(inner, "eval")(1)
    assert tracing.summarize(tracer.spans, "train")[2] == {"train": 1}


def test_patch_and_uninstall_restore_every_kind_of_owner():
    import sys
    module = sys.modules[__name__]
    box = Box()
    original_work, original_inner = Box.__dict__["work"], inner
    tracer = tracing.Tracer()
    tracer.patch(box, "work", "box.work")              # instance attribute
    tracer.patch(Box, "work", "Box.work")              # class attribute
    tracer.patch(module, "inner", "inner")             # module function
    assert box.work(1) == 1 and Box().work(1) == 1 and inner(1) == 2
    assert [s[tracing.NAME] for s in tracer.spans] == ["box.work", "Box.work", "inner"]
    tracer.uninstall()
    assert "work" not in vars(box)
    assert Box.__dict__["work"] is original_work and module.inner is original_inner
    n = len(tracer.spans)
    box.work(0), inner(0)
    assert len(tracer.spans) == n
