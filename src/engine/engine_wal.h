// Engine-level WAL record vocabulary + binary codecs. The storage-layer
// WriteAheadLog frames records but treats their type and payload as opaque
// bytes; this header defines what the engine actually journals:
//
//   kEvents      logical mutation batch (insert/update/delete per object) —
//                one record per ingested batch (an ApplyBatch or a single-op
//                mutation), appended after the in-RAM apply succeeds
//                (correct because durable state only changes at
//                checkpoints; see sharded_engine.h). Replay ingests each
//                record as the one batch it was published as: its ops are
//                checked in order, each against the presence the earlier
//                ones leave.
//   (type 2)     reserved: older logs carry advisory delta-merge markers
//                here. They cannot change what recovery produces — Open()
//                re-checkpoints any non-empty log, merging every delta — so
//                replay skips them like any unknown type.
//   kRekey       policy re-key adoption barrier (payload: new epoch).
//                AdoptSnapshot checkpoints immediately after logging it, so
//                an uncommitted kRekey can only be the WAL tail; replay
//                stops there (the pre-adopt epoch's records were already
//                folded into the previous checkpoint).
//   kPageImage   one overlay page journaled during a checkpoint, before the
//                disk manager folds it into the database file in place.
//   kCheckpoint  checkpoint commit marker: allocation state + the engine
//                manifest. A complete image set followed by kCheckpoint lets
//                recovery finish a checkpoint that crashed mid-fold.
//
// All integers little-endian, doubles as raw IEEE-754 bits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "motion/moving_object.h"
#include "peb/peb_tree.h"
#include "storage/page.h"

namespace peb::engine_wal {

enum RecordType : uint8_t {
  kEvents = 1,
  kMerge = 2,  ///< Reserved (see above); never written.
  kRekey = 3,
  kPageImage = 4,
  kCheckpoint = 5,
};

/// One logical mutation inside a kEvents record.
struct LoggedOp {
  enum Kind : uint8_t { kInsert = 0, kUpdate = 1, kDelete = 2 };
  Kind kind = kUpdate;
  MovingObject state;  ///< For kDelete only state.id matters.
};

std::string EncodeEvents(const std::vector<LoggedOp>& ops);
Status DecodeEvents(const std::string& payload, std::vector<LoggedOp>* out);

std::string EncodeRekey(uint64_t epoch);
Status DecodeRekey(const std::string& payload, uint64_t* epoch);

std::string EncodePageImage(PageId id, const Page& page);
Status DecodePageImage(const std::string& payload, PageId* id, Page* page);

/// Per-shard tree roots + stats plus the encoding epoch: everything needed
/// to re-attach the shard trees without rebuilding. Serialized both into
/// kCheckpoint records and into the superblock metadata blob.
struct EngineManifest {
  uint64_t epoch = 0;
  std::vector<PebTreeManifest> shards;
};

std::string EncodeManifest(const EngineManifest& manifest);
Status DecodeManifest(const std::string& payload, EngineManifest* out);

/// kCheckpoint payload: the disk allocation state as of the checkpoint (so
/// recovery can adopt a checkpoint whose superblock write never landed)
/// plus the manifest blob.
struct CheckpointRecord {
  PageId next_page = 0;
  std::vector<PageId> free_list;
  std::string manifest;  ///< EncodeManifest output.
};

std::string EncodeCheckpoint(const CheckpointRecord& record);
Status DecodeCheckpoint(const std::string& payload, CheckpointRecord* out);

}  // namespace peb::engine_wal
