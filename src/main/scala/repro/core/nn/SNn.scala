package repro.core.nn

import org.apache.spark.sql.DataFrame
import repro.core.joined

/** Algorithm S-NN: the join is recomputed on the fly every epoch (planned
  * once, executed again by each pass, no materialization); compute is
  * identical to M-NN.
  */
object SNn {

  /** S ⋈ R, the case q = 1 of [[trainMulti]]; kept for perfbench and the specs (ROADMAP item 3). */
  def train(s: DataFrame, r: DataFrame, init: NnModel, epochs: Int, lr: Double): NnFit =
    trainMulti(s, Seq(r), init, epochs, lr)

  /** Multi-way T(sid, xs, xr = [xr1 … xrq], y). */
  def joinedMulti(s: DataFrame, rs: Seq[DataFrame]): DataFrame = joined(s, rs, Seq("y"))

  /** Plans the join once and runs it again in every epoch, with new
    * exchanges, so each pass reads S and every R and shuffles them again
    * (see [[repro.core.gmm.SGmm.trainMulti]]).
    */
  def trainMulti(s: DataFrame, rs: Seq[DataFrame], init: NnModel, epochs: Int, lr: Double): NnFit =
    DenormNn.train(DenormNn.joins(joinedMulti(s, rs)), init, epochs, lr)
}
