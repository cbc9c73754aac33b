package repro.bench

import repro.SparkSpec

/** Regenerates paper **Table VII** (NN, Sparse real-dataset surrogates +
  * Movies-3way, nh=50).
  */
class NnTable7Bench extends SparkSpec {

  test("Table VII: F-NN beats M-NN and S-NN on every dataset") {
    val rows = PaperTables.runAll(spark, PaperTables.Seven)
    println(Harness.renderTable(
      s"Table VII (NN, scale=${Harness.scale}, epochs=${Harness.nnEpochs})", rows))

    rows.foreach { r =>
      assert(r.f < math.min(r.m, r.s) * 1.05,
        s"${r.dataset}: F (${r.f}s) not fastest (M=${r.m}s, S=${r.s}s)")
    }
    val aggSpeedup = rows.map(r => math.min(r.m, r.s)).sum / rows.map(_.f).sum
    println(f"aggregate F-NN speedup: $aggSpeedup%.2fx (paper: 3.4x-8.1x per dataset)")
    assert(aggSpeedup > 1.3, f"aggregate speedup $aggSpeedup%.2f too small")
  }
}
