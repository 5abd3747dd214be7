"""Table V benchmark — positional-encoding ablation on B1.

Paper shape to reproduce: the Gaussian random-Fourier-feature encoding
(Eq. (15)) beats no encoding; at the paper's full scale it also beats the
axis-aligned NeRF encoding (Eq. (14)).  At the reduced reproduction scale the
RFF-vs-NeRF margin can shrink (see ``results/table5_encoding.txt``), so the
hard assertion here is only the "encoding >> no special treatment" claim.
"""

from repro.experiments.table5 import run_table5


def test_table5_positional_encoding(benchmark, preset, seed, record_output):
    result = benchmark.pedantic(lambda: run_table5(preset, seed), rounds=1, iterations=1)

    print("\n" + result["table"])
    record_output("table5_encoding", result["table"])

    results = result["results"]
    assert set(results) == {"None", "NeRF PE", "Ours (RFF)"}
    assert results["Ours (RFF)"]["psnr"] > results["None"]["psnr"]
    assert results["Ours (RFF)"]["mse"] < results["None"]["mse"]
