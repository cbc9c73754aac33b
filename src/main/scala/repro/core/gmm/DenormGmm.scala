package repro.core.gmm

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import repro.core.{RRel, assemble, features, iterate, mergePartitions, scan}

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
  def joined(s: DataFrame, r: DataFrame): DataFrame = SGmm.joinedMulti(RRel.binary(s), Seq(r))

  /** One EM iteration over T, planning T's scan for this call. Returns the
    * updated model and the log-likelihood of the incoming model.
    */
  def emStep(t: DataFrame, model: GmmModel): (GmmModel, Double) = step(rows(t), model)

  /** T's (xs, xr) rows: a planned scan that every pass over it runs again. */
  private[gmm] def rows(t: DataFrame): RDD[InternalRow] = scan(t, features("xs"), features("xr"))

  /** One EM iteration: one pass over planned rows of T. */
  private def step(rows: RDD[InternalRow], model: GmmModel): (GmmModel, Double) = {
    val k = model.k
    val d = model.d
    val means = model.means
    // The tasks read only the factors, the log-constants and the means.
    val cache = GmmComponentCache(model)
    val chol = cache.chol
    val logConst = cache.logConst

    val acc = mergePartitions(rows, new GmmAccum(k, d)) { it =>
      val a = new GmmAccum(k, d)
      val gamma = new Array[Double](k)
      val quad = new Array[Double](k)
      val x = new Array[Double](d) // full-width tuple, as materialized in T
      val pd = new Array[Double](d)
      val z = new Array[Double](d)
      it.foreach { row =>
        assemble(row, x)
        var i = 0
        while (i < k) {
          val mu = means(i)
          var j = 0
          while (j < d) { pd(j) = x(j) - mu(j); j += 1 }
          quad(i) = chol(i).quadInv(pd, z)
          i += 1
        }
        val ll = GmmMath.responsibilities(logConst, quad, gamma)
        a.add(x, gamma, ll)
      }
      a
    }(_.merge(_))
    (acc.toModel, acc.loglik)
  }

  /** Run `iters` EM iterations, each one pass over the rows `scan()`
    * returns for it. M-GMM passes the rows of T it planned once, so every
    * pass re-reads T's files; S-GMM passes a scan that plans the join
    * again, so every pass joins again.
    */
  def train(scan: () => RDD[InternalRow], init: GmmModel, iters: Int): GmmFit = {
    val (model, lls) = iterate(init, iters)(step(scan(), _))
    GmmFit(model, lls)
  }
}
