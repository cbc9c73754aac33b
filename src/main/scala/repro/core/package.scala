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

  /** Copy one joined row's S and R features into `x`, rejecting a row that
    * would fill it wrongly: null features, or widths that do not add up to
    * the model's d = `x.length`.
    */
  private[core] def assemble(xs: Array[Double], xr: Array[Double], x: Array[Double]): Unit = {
    require(xs != null && xr != null && xs.length + xr.length == x.length,
      s"joined row has ${width(xs)} + ${width(xr)} features, expected ${x.length}")
    System.arraycopy(xs, 0, x, 0, xs.length)
    System.arraycopy(xr, 0, x, xs.length, xr.length)
  }

  /** Reject an S row of a factorized pass whose features are null or not `dS` wide. */
  private[core] def requireS(xs: Array[Double], dS: Int): Unit =
    require(xs != null && xs.length == dS, s"S row has ${width(xs)} features, expected $dS")

  private def width(x: Array[Double]): String = if (x == null) "null" else x.length.toString
}
