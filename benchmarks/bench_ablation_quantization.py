"""Ablation — post-training quantization (the paper's future work).

Quantizes the pruned flagship student to 8/6/4 bits and measures the
ranking-quality impact, alongside the modeled SIMD speed-up ceiling.
Expected shape: int8 is quality-free (the future-work direction is
viable), aggressive bit-widths degrade.
"""

from __future__ import annotations

from benchmarks._common import emit
from repro.metrics import mean_ndcg
from repro.nn import quantize_student
from repro.nn.quantization import quantized_speedup_estimate

BITS = (8, 6, 4)


def test_ablation_quantization(msn_pipeline, predictor, benchmark):
    from dataclasses import replace

    from repro.runtime import PricingContext, price, student_shape

    student = msn_pipeline.pruned_student(msn_pipeline.zoo.flagship)
    test = msn_pipeline.test
    baseline = mean_ndcg(test, student.predict(test.features), 10)

    # Both prices come from the one runtime pricing surface, at the
    # pruned student's shape: the fp32 hybrid, and int8 over the
    # quantized twin's first-layer structure.
    context = PricingContext(predictor=predictor)
    fp32_us = price(student_shape(student, sparse=True), context=context)
    int8_shape = student_shape(quantize_student(student, bits=8), sparse=True)
    int8_us = price(replace(int8_shape, bits=8), context=context)

    rows = [("fp32 (pruned baseline)", round(baseline, 4), "-", round(fp32_us, 2))]
    quality = {}
    for bits in BITS:
        q = quantize_student(student, bits=bits)
        ndcg = mean_ndcg(test, q.predict(test.features), 10)
        quality[bits] = ndcg
        time_us = round(int8_us, 2) if bits == 8 else "-"
        rows.append((f"int{bits}", round(ndcg, 4), round(ndcg - baseline, 4), time_us))

    emit(
        "ablation_quantization",
        ["Precision", "NDCG@10", "Delta", "Modeled us/doc"],
        rows,
        title="Ablation: post-training quantization of the pruned flagship",
        notes=(
            f"SIMD lane ceiling {quantized_speedup_estimate():.0f}x; the "
            f"int8 timing model predicts {fp32_us / int8_us:.1f}x over the "
            "fp32 hybrid.  Shape to hold: int8 preserves ranking quality "
            "(zeros quantize to zero, so the sparse structure survives) — "
            "the paper's future-work direction composes with pruning."
        ),
    )

    assert quality[8] >= baseline - 0.005
    assert quality[8] >= quality[4] - 1e-9
    assert int8_us < fp32_us

    benchmark(lambda: quantize_student(student, bits=8))
