package repro.core.nn

import org.apache.spark.sql.DataFrame

/** Algorithm F-NN for binary joins S ⋈ R (paper §VI-A): the case q = 1 of
  * [[FNnMulti]], whose S carries the FK column `fk1`. `W1_R x_r` is
  * computed once per R tuple per epoch and reused for every matching S
  * tuple, and each task finishes its share of PG_R from per-FK grouped
  * δ-sums with one outer product per R tuple it joined. Kept for perfbench
  * and the specs (ROADMAP item 3).
  */
object FNn {

  def epoch(s: DataFrame, rRows: Array[(Long, Array[Double])], model: NnModel,
            lr: Double, dS: Int): (NnModel, Double) =
    FNnMulti.epoch(s, Seq(rRows), model, lr, dS)

  /** Collect and broadcast R once (nR ≪ nS) and run `epochs` factorized epochs. */
  def train(s: DataFrame, r: DataFrame, init: NnModel, epochs: Int, lr: Double): NnFit =
    FNnMulti.train(s, Seq(r), init, epochs, lr)
}
