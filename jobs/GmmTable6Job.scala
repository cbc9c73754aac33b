package repro.jobs

import org.apache.spark.sql.SparkSession

/** spark-submit entrypoint regenerating paper Table VI (GMM real datasets).
  *
  * {{{
  * spark-submit --class repro.jobs.GmmTable6Job --jars repro.jar repro-bench.jar [scale] [iters]
  * }}}
  */
object GmmTable6Job {
  def main(args: Array[String]): Unit = {
    val scale = if (args.length > 0) args(0).toDouble else repro.bench.Harness.scale
    val iters = if (args.length > 1) args(1).toInt else repro.bench.Harness.gmmIters
    val spark = Jobs.session("gmm-table6")
    try {
      val rows = repro.bench.GmmTables.runAll(spark, scale, iters)
      println(repro.bench.Harness.renderTable(s"Table VI (scale=$scale, iters=$iters)", rows))
    } finally spark.stop()
  }
}

/** Shared session builder for the job entrypoints (mirrors SparkSpec's
  * settings so job and bench numbers are comparable).
  */
object Jobs {
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}
