package repro.core.nn

import repro.linalg.{Mat, Vec}

/** Differentiable activation for the hidden layer (paper §III-B). */
sealed trait Activation extends Serializable {
  def f(a: Double): Double
  def fPrime(a: Double): Double
  def name: String
}

object Activation {
  case object Sigmoid extends Activation {
    def f(a: Double): Double = 1.0 / (1.0 + math.exp(-a))
    def fPrime(a: Double): Double = { val s = f(a); s * (1.0 - s) }
    val name = "sigmoid"
  }
  case object Relu extends Activation {
    def f(a: Double): Double = math.max(0.0, a)
    def fPrime(a: Double): Double = if (a > 0.0) 1.0 else 0.0
    val name = "relu"
  }
  case object Tanh extends Activation {
    def f(a: Double): Double = math.tanh(a)
    def fPrime(a: Double): Double = { val t = math.tanh(a); 1.0 - t * t }
    val name = "tanh"
  }
  /** Additive (Cauchy) activation — the only family for which layer-2
    * factorization stays exact (paper §VI-A2 footnote 1).
    */
  case object Identity extends Activation {
    def f(a: Double): Double = a
    def fPrime(a: Double): Double = 1.0
    val name = "identity"
  }
}

/** Single-hidden-layer regression network (paper §III-B / §VI):
  * o = w2 · f(W1 x + b1) + b2, squared error E = 1/(2N) Σ (o − y)².
  *
  * @param w1 input→hidden weights, nh × d
  * @param b1 hidden biases, nh
  * @param w2 hidden→output weights, nh
  * @param b2 output bias
  */
final case class NnModel(w1: Mat, b1: Array[Double], w2: Array[Double], b2: Double,
                         activation: Activation) extends Serializable {
  val nh: Int = w1.rows
  val d: Int = w1.cols
  require(b1.length == nh && w2.length == nh)

  /** One gradient-descent update (full-batch epoch). */
  def step(g: NnGrads, lr: Double): NnModel = {
    val w1n = w1.copy
    w1n.addInPlace(g.dW1.scaled(-lr))
    val b1n = b1.clone(); Vec.axpy(-lr, g.db1, b1n)
    val w2n = w2.clone(); Vec.axpy(-lr, g.dW2, w2n)
    copy(w1 = w1n, b1 = b1n, w2 = w2n, b2 = b2 - lr * g.db2)
  }
}

object NnModel {
  /** Deterministic small-weight init shared by M-NN/S-NN/F-NN. */
  def init(nh: Int, d: Int, seed: Long, activation: Activation = Activation.Sigmoid): NnModel = {
    val rnd = new scala.util.Random(seed)
    val scale = 1.0 / math.sqrt(d)
    NnModel(
      w1 = new Mat(nh, d, Array.fill(nh * d)(rnd.nextGaussian() * scale)),
      b1 = Array.fill(nh)(rnd.nextGaussian() * 0.01),
      w2 = Array.fill(nh)(rnd.nextGaussian() / math.sqrt(nh)),
      b2 = 0.0,
      activation = activation,
    )
  }
}

/** Full-batch gradients of E w.r.t. every parameter. */
final case class NnGrads(dW1: Mat, db1: Array[Double], dW2: Array[Double], db2: Double)
