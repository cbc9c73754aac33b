package org.apache.spark

/** Access to the listener bus's drain, which Spark keeps package-private:
  * the traced run reads its listener's counters only after every event of
  * the jobs it timed has been delivered.
  */
object BenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
