package repro

package object core {

  /** The training loop every trainer shares: run `n` steps from `init`, each
    * returning the next model and the objective (log-likelihood or loss) of
    * the model it started from.
    */
  private[core] def iterate[M](init: M, n: Int)(step: M => (M, Double)): (M, Seq[Double]) = {
    var model = init
    val objective = (0 until n).map { _ =>
      val (next, v) = step(model)
      model = next
      v
    }
    (model, objective)
  }
}
