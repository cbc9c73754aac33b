package repro.data

import org.apache.spark.sql.functions.lit
import repro.SparkSpec

class StoreSpec extends SparkSpec {

  test("write/read round-trips a table") {
    val store = Store.temp(spark)
    try {
      val (s, r) = NormalizedSynth.binary(spark, 200, 10, 3, 4, seed = 1)
      val back = store.write("s", s)
      assert(back.count() == 200)
      assert(back.columns.toSeq == s.columns.toSeq)
      // re-read independently
      assert(store.read("s").count() == 200)
      // write returns the schema (nullability included) and rows an
      // independent read infers from the files; so does an empty frame,
      // which M writes as T over an empty join before it fails on the driver
      Seq("s" -> s, "r" -> r, "empty" -> s.where(lit(false))).foreach { case (name, df) =>
        assert(df.schema.exists(!_.nullable), s"$name: every source column is already nullable")
        val written = store.write(name, df)
        val read = store.read(name)
        assert(written.schema == read.schema, s"$name: ${written.schema} vs ${read.schema}")
        assert(written.schema.forall(_.nullable))
        val id = df.columns.head
        assert(written.orderBy(id).collect().toSeq == read.orderBy(id).collect().toSeq)
      }
    } finally store.close()
  }

  test("sizeBytes is positive for a written table and grows with data") {
    val store = Store.temp(spark)
    try {
      val (s1, _) = NormalizedSynth.binary(spark, 100, 10, 3, 4, seed = 2)
      val (s2, _) = NormalizedSynth.binary(spark, 10000, 10, 3, 4, seed = 2)
      store.write("small", s1.coalesce(1))
      store.write("big", s2.coalesce(1))
      val small = store.sizeBytes("small")
      val big   = store.sizeBytes("big")
      assert(small > 0)
      assert(big > small, s"expected $big > $small")
    } finally store.close()
  }

  test("overwrite replaces previous contents") {
    val store = Store.temp(spark)
    try {
      val (s, r) = NormalizedSynth.binary(spark, 50, 5, 2, 2, seed = 3)
      store.write("t", s)
      store.write("t", s.limit(10))
      assert(store.read("t").count() == 10)
      // a different schema: write returns the new one
      val back = store.write("t", r)
      assert(back.schema == store.read("t").schema)
      assert(back.columns.toSeq == r.columns.toSeq && back.count() == 5)
    } finally store.close()
  }

  test("close removes the store directory") {
    val store = Store.temp(spark)
    val (s, _) = NormalizedSynth.binary(spark, 20, 5, 2, 2, seed = 4)
    store.write("t", s)
    store.close()
    assert(!store.root.toFile.exists())
  }

  test("materialized join T is larger on disk than S+R when dR is wide") {
    val store = Store.temp(spark)
    try {
      // high redundancy: rr = 2000/20 = 100, dR wide
      val (s, r) = NormalizedSynth.binary(spark, 2000, 20, 2, 40, seed = 5)
      val sP = store.write("s", s.coalesce(1))
      val rP = store.write("r", r.coalesce(1))
      val t  = sP.join(rP, sP("fk") === rP("rid")).select(sP("sid"), sP("fk"), sP("xs"), rP("xr"))
      store.write("t", t.coalesce(1))
      val tBytes  = store.sizeBytes("t")
      val srBytes = store.sizeBytes("s") + store.sizeBytes("r")
      assert(tBytes > srBytes, s"T=$tBytes should exceed S+R=$srBytes (denormalization redundancy)")
    } finally store.close()
  }
}
