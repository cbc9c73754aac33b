package repro.bench

import org.apache.spark.sql.DataFrame
import repro.core.gmm.{FGmmMulti, GmmModel, MGmm, SGmm}
import repro.core.nn.{FNnMulti, MNn, NnModel, SNn}
import repro.data.Store

/** One model family as the paper tables and sweeps train it: its init, its
  * M, S and F trainers and the check that two runs agree. Every trainer is
  * the multi-way entry point, so a binary join trains as the case q = 1
  * (`Seq(r)`); each returns the objective of the model entering every
  * iteration, the log-likelihood (GMM) or the loss (NN).
  */
sealed trait Family {
  type Model

  /** The paper's model width: K components (GMM) or nh hidden units (NN). */
  def width: Int

  /** EM iterations (GMM) or epochs (NN) per training run. */
  def iters: Int

  /** Whether S carries the target `y` the family trains on. */
  def withTarget: Boolean

  def init(width: Int, d: Int, seed: Long): Model
  def m(store: Store, s: DataFrame, rs: Seq[DataFrame], init: Model, iters: Int): Seq[Double]
  def s(s: DataFrame, rs: Seq[DataFrame], init: Model, iters: Int): Seq[Double]
  def f(s: DataFrame, rs: Seq[DataFrame], init: Model, iters: Int): Seq[Double]

  /** Whether a run's final objective `b` agrees with the reference `a`. */
  def agree(a: Double, b: Double): Boolean
}

/** GMM, K = 5 (paper §VII); runs agree to 1e-6 relative log-likelihood. */
object Gmm extends Family {
  type Model = GmmModel
  val width = 5
  def iters: Int = Harness.gmmIters
  val withTarget = false
  def init(width: Int, d: Int, seed: Long): GmmModel = GmmModel.init(width, d, seed)
  def m(store: Store, s: DataFrame, rs: Seq[DataFrame], init: GmmModel, iters: Int): Seq[Double] =
    MGmm.trainMulti(store, s, rs, init, iters).logliks
  def s(s: DataFrame, rs: Seq[DataFrame], init: GmmModel, iters: Int): Seq[Double] =
    SGmm.trainMulti(s, rs, init, iters).logliks
  def f(s: DataFrame, rs: Seq[DataFrame], init: GmmModel, iters: Int): Seq[Double] =
    FGmmMulti.train(s, rs, init, iters).logliks
  def agree(a: Double, b: Double): Boolean = math.abs(b - a) / math.abs(a) < 1e-6
}

/** NN, nh = 50, one hidden layer, learning rate 0.01 (paper §VII); runs
  * agree to 1e-8 in the loss.
  */
object Nn extends Family {
  type Model = NnModel
  val Lr = 0.01
  val width = 50
  def iters: Int = Harness.nnEpochs
  val withTarget = true
  def init(width: Int, d: Int, seed: Long): NnModel = NnModel.init(width, d, seed)
  def m(store: Store, s: DataFrame, rs: Seq[DataFrame], init: NnModel, iters: Int): Seq[Double] =
    MNn.trainMulti(store, s, rs, init, iters, Lr).losses
  def s(s: DataFrame, rs: Seq[DataFrame], init: NnModel, iters: Int): Seq[Double] =
    SNn.trainMulti(s, rs, init, iters, Lr).losses
  def f(s: DataFrame, rs: Seq[DataFrame], init: NnModel, iters: Int): Seq[Double] =
    FNnMulti.train(s, rs, init, iters, Lr).losses
  def agree(a: Double, b: Double): Boolean = math.abs(b - a) < 1e-8
}
