package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId

/** The broadcast variables whose blocks the driver's block manager holds.
  * The block manager is private to Spark, so this lives in its package.
  */
object BroadcastBlocks {

  /** Ids of the broadcast variables with a block on the driver, leaving out
    * task binaries: the serialized closure each stage broadcasts as an
    * `Array[Byte]`, freed by the context cleaner once unreachable.
    */
  def held(sc: SparkContext): Set[Long] = {
    val bm = sc.env.blockManager
    def isTaskBinary(id: Long): Boolean =
      bm.getLocalValues(BroadcastBlockId(id)).exists(_.data.toList.forall(_.isInstanceOf[Array[Byte]]))
    bm.getMatchingBlockIds(_.isBroadcast)
      .collect { case BroadcastBlockId(id, _) => id }
      .toSet
      .filterNot(isTaskBinary)
  }
}
