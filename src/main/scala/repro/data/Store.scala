package repro.data

import java.nio.file.{Files, Path}
import org.apache.spark.sql.{DataFrame, SaveMode, SparkSession}

/** Parquet-on-local-FS storage layer — the role PostgreSQL plays in the
  * paper (§VII-B: "The RDBMS is utilized primarily for storage of relations
  * and all algorithm logic is implemented on top").
  *
  * Base tables are written once; M-* algorithms additionally materialize
  * the join result T here and read it back every iteration; S- and F-
  * algorithms re-read the base tables instead.
  */
final class Store(spark: SparkSession, val root: Path) {

  private def pathOf(name: String): String = root.resolve(name).toString

  /** Persist `df` as table `name` (overwrite). Returns the re-read frame so
    * downstream passes scan Parquet, not the generator's lineage. The read
    * takes `df`'s schema instead of inferring it from the Parquet footers,
    * which would cost a Spark job; file sources read every column as
    * nullable, so the schema is the one [[read]] would infer.
    */
  def write(name: String, df: DataFrame): DataFrame = {
    df.write.mode(SaveMode.Overwrite).parquet(pathOf(name))
    spark.read.schema(df.schema).parquet(pathOf(name))
  }

  /** Read table `name` from Parquet, inferring its schema from the files. */
  def read(name: String): DataFrame = spark.read.parquet(pathOf(name))

  /** Total on-disk size of table `name` in bytes (I/O accounting). */
  def sizeBytes(name: String): Long = {
    val dir = root.resolve(name).toFile
    Option(dir.listFiles()).map(_.filter(_.isFile).map(_.length()).sum).getOrElse(0L)
  }

  /** Delete everything under this store. */
  def close(): Unit = {
    def rm(f: java.io.File): Unit = {
      Option(f.listFiles()).foreach(_.foreach(rm))
      f.delete(): Unit
    }
    rm(root.toFile)
  }
}

object Store {
  /** Fresh store under a temp directory. */
  def temp(spark: SparkSession, prefix: String = "repro-store"): Store =
    new Store(spark, Files.createTempDirectory(prefix))
}
