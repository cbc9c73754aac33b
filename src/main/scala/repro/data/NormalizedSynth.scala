package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic *normalized* relation pairs for the paper's schema
  * (Section IV): S(sid, fk, xs[, y]) with a PK/FK reference into
  * R(rid, xr), with the mixture-of-Gaussians feature data the paper
  * evaluates on ("synthetic data sampling from multiple Gaussian
  * distributions and add random noise", §VII-A) plus one-hot "Sparse" variants and the
  * dimension-faithful surrogates for the Hamlet real datasets (Tables IV/V).
  *
  * All generators are deterministic in (sizes, seed): every stochastic
  * column derives from `rand(seed + fixed offset)` / `randn(...)`.
  *
  * Feature columns are `array<double>` — the natural Spark encoding for a
  * feature matrix attribute (X_S / X_R in the paper's notation).
  */
object NormalizedSynth {

  /** Mixture feature block: component `comp` ∈ [0, k) shifts dimension `i`
    * by a distinct, well-separated center; unit Gaussian noise on top.
    * Centers are `4·sin((comp+1)·(i+1))`-spaced — deterministic, distinct
    * per (component, dimension), bounded.
    */
  private def mixtureFeatures(d: Int, comp: Column, seed: Long): Column =
    array((0 until d).map { i =>
      lit(4.0) * sin((comp + 1) * (i + 1)) + randn(seed + 1000 + i)
    }: _*)

  /** One-hot feature block of total width `d`: consecutive blocks of width
    * ≤ `blockWidth`, each with exactly one 1.0 (the paper's "Sparse"
    * encoding of categorical attributes). Deterministic in `seed`.
    */
  private def oneHotFeatures(d: Int, blockWidth: Int, seed: Long): Column = {
    val blocks = (0 until d).grouped(blockWidth).toSeq
    val cols = blocks.zipWithIndex.flatMap { case (idxs, b) =>
      val hot = (rand(seed + 2000 + b) * idxs.size).cast(IntegerType)
      idxs.indices.map(p => when(hot === p, 1.0).otherwise(0.0))
    }
    array(cols: _*)
  }

  /** Attribute relation R(rid: long, xr: array<double>) with `nR` tuples of
    * `dR` mixture features over `k` components.
    */
  def r(spark: SparkSession, nR: Long, dR: Int, seed: Long, k: Int = 5,
        sparse: Boolean = false, blockWidth: Int = 9): DataFrame = {
    val comp = (rand(seed) * k).cast(IntegerType)
    val feats = if (sparse) oneHotFeatures(dR, blockWidth, seed)
                else mixtureFeatures(dR, comp, seed)
    spark.range(1, nR + 1).select(col("id") as "rid", feats as "xr")
  }

  /** Entity relation S(sid: long, fk: long, xs: array<double>[, y: double])
    * with `nS` tuples, FKs uniform over [1, nR], `dS` mixture features; when
    * `withTarget`, `y` is a noisy nonlinear function of xs(0) (NN target).
    */
  def s(spark: SparkSession, nS: Long, nR: Long, dS: Int, seed: Long, k: Int = 5,
        withTarget: Boolean = false, sparse: Boolean = false, blockWidth: Int = 9): DataFrame =
    entity(spark, nS, Seq((rand(seed + 2) * nR + 1).cast(LongType) as "fk"), dS, seed, k, withTarget,
      sparse, blockWidth)

  /** S(sid, fks…, xs[, y]) with `nS` tuples, the FK columns `fks` and `dS`
    * features; `y` as in [[s]].
    */
  private def entity(spark: SparkSession, nS: Long, fks: Seq[Column], dS: Int, seed: Long, k: Int,
                     withTarget: Boolean, sparse: Boolean = false, blockWidth: Int = 9): DataFrame = {
    val comp  = (rand(seed + 1) * k).cast(IntegerType)
    val feats = if (sparse) oneHotFeatures(dS, blockWidth, seed + 1)
                else mixtureFeatures(dS, comp, seed + 1)
    val base = spark.range(1, nS + 1).select(Seq(col("id") as "sid") ++ fks :+ (feats as "xs"): _*)
    if (withTarget)
      base.withColumn("y", sin(element_at(col("xs"), 1)) + randn(seed + 3) * 0.1)
    else base
  }

  /** Binary-join workload: (S, R) per the paper's Section IV schema. */
  def binary(spark: SparkSession, nS: Long, nR: Long, dS: Int, dR: Int, seed: Long,
             k: Int = 5, withTarget: Boolean = false, sparse: Boolean = false): (DataFrame, DataFrame) =
    (s(spark, nS, nR, dS, seed, k, withTarget, sparse),
     r(spark, nR, dR, seed + 100, k, sparse))

  /** Multi-way workload: S(sid, fk1..fkq, xs[, y]) plus R1..Rq.
    * `specs(i) = (nRi, dRi)`.
    */
  def multiway(spark: SparkSession, nS: Long, dS: Int, specs: Seq[(Long, Int)], seed: Long,
               k: Int = 5, withTarget: Boolean = false): (DataFrame, Seq[DataFrame]) = {
    val fks = specs.zipWithIndex.map { case ((nRi, _), i) =>
      (rand(seed + 10 + i) * nRi + 1).cast(LongType) as s"fk${i + 1}"
    }
    val rs = specs.zipWithIndex.map { case ((nRi, dRi), i) =>
      r(spark, nRi, dRi, seed + 200 + 31L * i, k)
    }
    (entity(spark, nS, fks, dS, seed, k, withTarget), rs)
  }

  // ---------------------------------------------------------------------
  // Surrogates for the Hamlet real datasets (paper Tables IV and V).
  // The originals are not available offline; these generate pairs with the
  // exact (nS, dS, nR, dR) of the paper — training cost depends only on
  // those dimensions (and K / nh), not on feature values, so runtime shape
  // is preserved. See DESIGN.md §5.
  // ---------------------------------------------------------------------

  /** One real-dataset surrogate spec: the dimensions of paper Tables IV/V. */
  final case class DatasetDims(name: String, nS: Long, dS: Int, nR: Long, dR: Int,
                               sparse: Boolean = false)

  /** Paper Table IV (GMM rows use the Not Sparse encodings). */
  val table4NotSparse: Seq[DatasetDims] = Seq(
    DatasetDims("Expedia1(Not Sparse)", 942142L, 7, 11938L, 8),
    DatasetDims("Expedia2(Not Sparse)", 942142L, 7, 37021L, 14),
    DatasetDims("Walmart (Not Sparse)", 421570L, 3, 2340L, 9),
    DatasetDims("Movies (Not Sparse)", 1000209L, 1, 3706L, 21),
  )

  /** Paper Table IV sparse rows (NN experiments). */
  val table4Sparse: Seq[DatasetDims] = Seq(
    DatasetDims("Walmart(Sparse)", 421570L, 126, 2340L, 175, sparse = true),
    DatasetDims("Movies (Sparse)", 1000209L, 1, 3706L, 21, sparse = true),
  )

  /** Paper Table V: Expedia1-derived augmentations with growing dR. */
  val table5Augmented: Seq[DatasetDims] = Seq(
    DatasetDims("Expedia3 (Augmented)", 634133L, 7, 2899L, 29),
    DatasetDims("Expedia4 (Augmented)", 634133L, 7, 2899L, 78),
    DatasetDims("Expedia5 (Augmented)", 634133L, 7, 2899L, 218),
  )

  /** Movies-3way (paper §VII-A): S_ratings ⋈ R1_users ⋈ R2_movies.
    * MovieLens-1M has 6040 users; the paper injects synthetic users and
    * varies dR1 — defaults follow the Movies row (dR2=21) with dR1=20.
    */
  def movies3way(spark: SparkSession, seed: Long, nS: Long = 1000209L,
                 nR1: Long = 6040L, dR1: Int = 20, nR2: Long = 3706L, dR2: Int = 21,
                 withTarget: Boolean = false): (DataFrame, Seq[DataFrame]) =
    multiway(spark, nS, 1, Seq((nR1, dR1), (nR2, dR2)), seed, withTarget = withTarget)

  /** Generate a Table IV/V surrogate pair, optionally scaling nS down by
    * `scale` (benchmark knob; dims and nR stay exactly as the paper's).
    */
  def surrogate(spark: SparkSession, dims: DatasetDims, seed: Long, scale: Double = 1.0,
                withTarget: Boolean = false): (DataFrame, DataFrame) = {
    val nS = math.max(1L, (dims.nS * scale).toLong)
    binary(spark, nS, dims.nR, dims.dS, dims.dR, seed,
           withTarget = withTarget, sparse = dims.sparse)
  }
}
