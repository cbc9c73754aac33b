package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{Harness, PaperTables}

/** spark-submit entrypoint regenerating paper Table VI (GMM real datasets),
  * at the scale and iterations of `BENCH_SCALE` and `BENCH_GMM_ITERS`.
  *
  * {{{
  * spark-submit --class repro.jobs.GmmTable6Job --jars repro.jar repro-bench.jar
  * }}}
  */
object GmmTable6Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("gmm-table6")
    try {
      val rows = PaperTables.runAll(spark, PaperTables.Six)
      println(Harness.renderTable(s"Table VI (scale=${Harness.scale}, iters=${Harness.gmmIters})", rows))
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
