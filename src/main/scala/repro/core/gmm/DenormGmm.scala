package repro.core.gmm

import org.apache.spark.sql.{DataFrame, Encoders}
import repro.core.iterate
import repro.linalg.Vec

/** Result of a GMM training run: final model plus the log-likelihood of the
  * model *entering* each iteration (so logliks(0) scores the init).
  */
final case class GmmFit(model: GmmModel, logliks: Seq[Double])

/** EM over the *denormalized* representation — the compute shared by the
  * baselines M-GMM (T materialized on disk) and S-GMM (T recomputed on the
  * fly). Every joined tuple is processed at full dimension d = dS + dR;
  * nothing is reused across tuples that share an R partner — exactly the
  * redundant computation F-GMM removes.
  */
object DenormGmm {

  /** The projected equi-join T(sid, [X_S X_R]) of paper §IV, with the S and
    * R feature blocks kept as two array columns (their concatenation is the
    * feature vector; the split is positional, Table I).
    */
  def joined(s: DataFrame, r: DataFrame): DataFrame =
    s.join(r, s("fk") === r("rid")).select(s("sid"), s("xs"), r("xr"))

  /** One EM iteration over T. Returns the updated model and the
    * log-likelihood of the incoming model.
    */
  def emStep(t: DataFrame, model: GmmModel): (GmmModel, Double) = {
    val spark = t.sparkSession
    import spark.implicits._
    val cache = GmmComponentCache(model)
    val k = model.k
    val d = model.d
    val means = model.means

    implicit val accEnc = Encoders.kryo[GmmAccum]
    val acc = t.select("xs", "xr").as[(Array[Double], Array[Double])]
      .mapPartitions { it =>
        val a = new GmmAccum(k, d)
        val gamma = new Array[Double](k)
        val quad = new Array[Double](k)
        it.foreach { case (xs, xr) =>
          val x = Vec.concat(xs, xr) // full-width tuple, as materialized in T
          var i = 0
          while (i < k) {
            val pd = Vec.sub(x, means(i))
            quad(i) = cache.inv(i).quadForm(pd)
            i += 1
          }
          val ll = GmmMath.responsibilities(cache, quad, gamma)
          a.add(x, gamma, ll)
        }
        Iterator.single(a)
      }
      .reduce(_.merge(_))
    (acc.toModel, acc.loglik)
  }

  /** Run `iters` EM iterations (shared driver loop for M-GMM and S-GMM). */
  def train(t: DataFrame, init: GmmModel, iters: Int): GmmFit = {
    val (model, lls) = iterate(init, iters)(emStep(t, _))
    GmmFit(model, lls)
  }
}
