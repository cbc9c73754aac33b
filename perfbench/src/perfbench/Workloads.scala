package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{NormalizedSynth, Store}

/** One attribute relation R_i of a workload: nR tuples of dR features. */
final case class Rel(nR: Long, dR: Int)

/** A join shape S ⋈ R1 ⋈ … ⋈ Rq plus the model settings every algorithm
  * trains with. FKs are uniform over [1, nR] (PK/FK integrity holds). The
  * tables come from the run's seed; every training run starts from the
  * fixed init `GmmModel.init` / `NnModel.init` draw from `initSeed`, because
  * GMM's time depends on the init (how many responsibilities underflow to
  * zero or into subnormals), which would otherwise vary with the seed.
  */
final case class Workload(name: String, nS: Long, dS: Int, rels: Seq[Rel],
                          k: Int = 5, nh: Int = 50, lr: Double = 0.01, iters: Int = 3,
                          initSeed: Long = 1L) {
  def q: Int = rels.length
  def d: Int = dS + rels.map(_.dR).sum

  /** Same dimensions at a few thousand rows, for the smoke tests. */
  def smoke: Workload = copy(nS = 3000L)

  def record: Map[String, Any] = collection.immutable.ListMap(
    "name" -> name, "nS" -> nS, "dS" -> dS, "q" -> q,
    "nR" -> rels.map(_.nR), "dR" -> rels.map(_.dR), "d" -> d,
    "K" -> k, "nh" -> nh, "lr" -> lr, "activation" -> "sigmoid", "init_seed" -> initSeed,
    "gmm_em_iterations" -> iters, "nn_epochs" -> iters)
}

object Workloads {

  /** Expedia2 shape (paper Table IV): large nR and low tuple ratio, where F's
    * per-R-tuple driver work and per-FK partial state dominate.
    */
  val ManyR = Workload("many-r", nS = 40000L, dS = 7, rels = Seq(Rel(10000L, 14)))

  /** Movies-3way shape (paper Figs 4/6): the only multi-way workload. */
  val ThreeWay = Workload("three-way", nS = 6000L, dS = 1,
    rels = Seq(Rel(1500L, 80), Rel(900L, 21)))

  val all: Seq[Workload] = Seq(ManyR, ThreeWay)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}

/** The Parquet-backed base tables of one workload: S and R1..Rq. */
final case class Tables(store: Store, s: DataFrame, rs: Seq[DataFrame]) {
  def bytesS: Long = store.sizeBytes("s")
  def bytesR: Long = rs.indices.map(i => store.sizeBytes(s"r${i + 1}")).sum
}

object Tables {

  /** Generate S (with the NN target y) and R1..Rq from `seed` and write them
    * to `store`. S carries `fk` for a binary join and `fk1..fkq` otherwise,
    * the column names the binary and multi-way entry points read.
    */
  def generate(spark: SparkSession, w: Workload, seed: Long, store: Store): Tables = {
    val (s0, rs0) =
      if (w.q == 1) {
        val (s, r) = NormalizedSynth.binary(spark, w.nS, w.rels.head.nR, w.dS, w.rels.head.dR,
          seed, w.k, withTarget = true)
        (s, Seq(r))
      } else
        NormalizedSynth.multiway(spark, w.nS, w.dS, w.rels.map(r => (r.nR, r.dR)), seed, w.k,
          withTarget = true)
    val s = store.write("s", s0)
    val rs = rs0.zipWithIndex.map { case (r, i) => store.write(s"r${i + 1}", r) }
    Tables(store, s, rs)
  }
}
