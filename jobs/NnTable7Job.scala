package repro.jobs

import repro.bench.{Harness, PaperTables}

/** spark-submit entrypoint regenerating paper Table VII (NN real datasets),
  * at the scale and epochs of `BENCH_SCALE` and `BENCH_NN_EPOCHS`.
  *
  * {{{
  * spark-submit --class repro.jobs.NnTable7Job --jars repro.jar repro-bench.jar
  * }}}
  */
object NnTable7Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("nn-table7")
    try {
      val rows = PaperTables.runAll(spark, PaperTables.Seven)
      println(Harness.renderTable(s"Table VII (scale=${Harness.scale}, epochs=${Harness.nnEpochs})", rows))
    } finally spark.stop()
  }
}
