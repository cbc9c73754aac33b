package repro.core.nn

import org.apache.spark.sql.DataFrame

/** Algorithm F-NN for binary joins S ⋈ R (paper §VI-A): the q = 1 case of
  * [[FNnMulti]], reading the FK from S's column `fk`. `W1_R x_r` is computed
  * once per R tuple per epoch and reused for every matching S tuple, and
  * PG_R is finished from per-FK grouped δ-sums with one outer product per R
  * tuple.
  */
object FNn {

  def epoch(s: DataFrame, rRows: Array[(Long, Array[Double])], model: NnModel,
            lr: Double, dS: Int): (NnModel, Double) =
    FNnMulti.epoch(s, Seq("fk"), Seq(rRows), model, lr, dS)

  /** Collect R once (nR ≪ nS) and run `epochs` factorized epochs. */
  def train(s: DataFrame, r: DataFrame, init: NnModel, epochs: Int, lr: Double): NnFit =
    FNnMulti.train(s, Seq("fk"), Seq(r), init, epochs, lr)
}
