package repro.jobs

/** spark-submit entrypoint regenerating paper Table VII (NN real datasets).
  *
  * {{{
  * spark-submit --class repro.jobs.NnTable7Job --jars repro.jar repro-bench.jar [scale] [epochs]
  * }}}
  */
object NnTable7Job {
  def main(args: Array[String]): Unit = {
    val scale = if (args.length > 0) args(0).toDouble else repro.bench.Harness.scale
    val epochs = if (args.length > 1) args(1).toInt else repro.bench.Harness.nnEpochs
    val spark = Jobs.session("nn-table7")
    try {
      val rows = repro.bench.NnTables.runAll(spark, scale, epochs)
      println(repro.bench.Harness.renderTable(s"Table VII (scale=$scale, epochs=$epochs)", rows))
    } finally spark.stop()
  }
}
