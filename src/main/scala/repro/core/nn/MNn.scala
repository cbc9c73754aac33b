package repro.core.nn

import org.apache.spark.sql.DataFrame
import repro.core.RRel
import repro.data.Store

/** Algorithm M-NN: join S and R, **materialize** T on disk, train reading T
  * back every epoch. T's scan is planned once per run; every pass re-reads
  * its files. Materialization cost is part of training.
  */
object MNn {

  def train(store: Store, s: DataFrame, r: DataFrame, init: NnModel, epochs: Int,
            lr: Double, tableName: String = "T_mnn"): NnFit =
    trainMulti(store, RRel.binary(s), Seq(r), init, epochs, lr, tableName)

  def trainMulti(store: Store, s: DataFrame, rs: Seq[DataFrame], init: NnModel, epochs: Int,
                 lr: Double, tableName: String = "T_mnn_multi"): NnFit = {
    val rows = DenormNn.rows(store.write(tableName, SNn.joinedMulti(s, rs)))
    DenormNn.train(() => rows, init, epochs, lr)
  }
}
