package org.apache.spark

/** Access to the listener bus's drain, which Spark keeps package-private:
  * a spec reads its listener only after every event of the jobs it ran has
  * been delivered.
  */
object TestBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
