package repro.core.nn

import org.apache.spark.sql.DataFrame
import repro.core.{RRel, joined}

/** Algorithm S-NN: the join is recomputed on the fly every epoch (lazy
  * DataFrame, no materialization); compute is identical to M-NN.
  */
object SNn {

  def train(s: DataFrame, r: DataFrame, init: NnModel, epochs: Int, lr: Double): NnFit =
    trainMulti(RRel.binary(s), Seq(r), init, epochs, lr)

  /** Multi-way T(sid, xs, xr = [xr1 … xrq], y). */
  def joinedMulti(s: DataFrame, rs: Seq[DataFrame]): DataFrame = joined(s, rs, Seq("y"))

  /** Plans the join again for every epoch: a planned RDD reused across
    * epochs would read the first pass's shuffle files, so the join would
    * run once, not on the fly (see [[SGmm.trainMulti]]).
    */
  def trainMulti(s: DataFrame, rs: Seq[DataFrame], init: NnModel, epochs: Int, lr: Double): NnFit = {
    val t = joinedMulti(s, rs)
    DenormNn.train(() => DenormNn.rows(t), init, epochs, lr)
  }
}
