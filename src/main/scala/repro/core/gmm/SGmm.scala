package repro.core.gmm

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Algorithm S-GMM: compute the join **on the fly** every iteration without
  * materializing T — the lazy join DataFrame is re-executed by each EM
  * pass's action, which is Spark's equivalent of the paper's batch-probe
  * loop. Computation is identical to M-GMM (same denormalized EM).
  */
object SGmm {

  def train(s: DataFrame, r: DataFrame, init: GmmModel, iters: Int): GmmFit =
    DenormGmm.train(DenormGmm.joined(s, r), init, iters)

  /** The multi-way projected equi-join T(sid, [X_S X_R1 … X_Rq]) with all
    * R-side features concatenated into a single `xr` block (offsets are
    * positional, paper §IV).
    */
  def joinedMulti(s: DataFrame, rs: Seq[DataFrame]): DataFrame = joinedMulti(s, rs, Nil)

  /** [[joinedMulti]] that also keeps S's columns `keep` (e.g. the target `y`). */
  private[core] def joinedMulti(s: DataFrame, rs: Seq[DataFrame], keep: Seq[String]): DataFrame = {
    var t = s
    val xrCols = rs.indices.map(i => s"xr${i + 1}")
    rs.zipWithIndex.foreach { case (r, i) =>
      val ri = r.withColumnRenamed("rid", s"rid${i + 1}").withColumnRenamed("xr", s"xr${i + 1}")
      t = t.join(ri, t(s"fk${i + 1}") === ri(s"rid${i + 1}"))
    }
    t.select(Seq(col("sid"), col("xs"), concat(xrCols.map(col): _*) as "xr") ++ keep.map(col): _*)
  }

  def trainMulti(s: DataFrame, rs: Seq[DataFrame], init: GmmModel, iters: Int): GmmFit =
    DenormGmm.train(joinedMulti(s, rs), init, iters)
}
