#include "dur/chain_reader.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/model.h"
#include "util/crc32c.h"

namespace supa::dur {

Result<ChainReader> ChainReader::Open(
    const std::string& base_path,
    const std::vector<std::string>& delta_paths) {
  ChainReader chain;
  chain.base_path_ = base_path;
  uint64_t size = 0;
  SUPA_ASSIGN_OR_RETURN(chain.base_fd_, OpenForRead(base_path, &size));
  SUPA_ASSIGN_OR_RETURN(const BaseFileHead base,
                        ReadBaseFileHead(chain.base_fd_.get(), size, base_path));
  chain.meta_ = base.meta;
  chain.base_body_crc_ = base.body_crc;
  for (const std::string& path : delta_paths) {
    Delta delta;
    delta.path = path;
    SUPA_ASSIGN_OR_RETURN(delta.fd, OpenForRead(path, &size));
    SUPA_ASSIGN_OR_RETURN(delta.head,
                          ReadDeltaFileHead(delta.fd.get(), size, path));
    if (delta.head.param_count != base.meta.param_count) {
      return Status::IOError(
          "delta holds " + std::to_string(delta.head.param_count) +
          " params but its base " + std::to_string(base.meta.param_count) +
          ": " + path);
    }
    chain.meta_.adam_step = delta.head.adam_step;
    chain.deltas_.push_back(std::move(delta));
  }
  chain.chunk_.resize(kChunkFloats);
  chain.rows_.resize(kChunkFloats);
  return chain;
}

Status ChainReader::Stream(const ChainSink& sink) {
  const uint64_t total = meta_.param_count;
  uint32_t base_crc = 0;
  std::vector<Cursor> cursors(deltas_.size());
  for (size_t d = 0; d < deltas_.size(); ++d) {
    cursors[d].crc = deltas_[d].head.table_crc;
  }

  for (size_t region = 0; region < 3; ++region) {
    for (Cursor& c : cursors) {
      c.row = 0;
      c.done = 0;
      c.pos = 0;
    }
    for (uint64_t begin = 0; begin < total; begin += kChunkFloats) {
      const size_t n = static_cast<size_t>(std::min<uint64_t>(
          kChunkFloats, total - begin));
      SUPA_RETURN_NOT_OK(ReadAt(
          base_fd_.get(), chunk_.data(), n * sizeof(float),
          BaseFileHead::kBodyOffset + (region * total + begin) * sizeof(float),
          base_path_));
      base_crc = Crc32c(chunk_.data(), n * sizeof(float), base_crc);
      for (size_t d = 0; d < deltas_.size(); ++d) {
        SUPA_RETURN_NOT_OK(PatchChunk(d, region, begin, begin + n,
                                      static_cast<bool>(sink), &cursors[d]));
      }
      if (sink) {
        SUPA_RETURN_NOT_OK(
            sink(static_cast<StateRegion>(region), begin, chunk_.data(), n));
      }
    }
  }

  if (base_crc != base_body_crc_) {
    return Status::IOError("checkpoint body CRC mismatch: " + base_path_);
  }
  for (size_t d = 0; d < deltas_.size(); ++d) {
    if (cursors[d].crc != deltas_[d].head.body_crc) {
      return Status::IOError("delta body CRC mismatch: " + deltas_[d].path);
    }
  }
  return Status::OK();
}

namespace {

/// Walks the rows of `head` from row `*row` (of which `*done` floats are
/// walked already) that start before `end`, clipping the last one at
/// `end`, and calls fn(logical_offset, floats) per piece in order. Leaves
/// (*row, *done) at the first float not walked and returns the floats
/// walked: the next ones of the region's data, because rows are ascending
/// and everything before the chunk was walked already.
template <typename Fn>
uint64_t WalkRows(const DeltaFileHead& head, uint64_t end, size_t* row,
                  uint64_t* done, Fn&& fn) {
  uint64_t walked = 0;
  while (*row < head.offsets.size() && head.offsets[*row] + *done < end) {
    const uint64_t row_begin = head.offsets[*row];
    const uint64_t row_end = row_begin + head.lens[*row];
    const uint64_t start = row_begin + *done;
    const uint64_t stop = std::min(row_end, end);
    fn(start, stop - start);
    walked += stop - start;
    if (stop < row_end) {
      *done = stop - row_begin;  // the row continues in the next chunk
      break;
    }
    ++*row;
    *done = 0;
  }
  return walked;
}

}  // namespace

Status ChainReader::PatchChunk(size_t d, size_t region, uint64_t begin,
                               uint64_t end, bool copy, Cursor* cursor) {
  const Delta& delta = deltas_[d];
  size_t row = cursor->row;
  uint64_t done = cursor->done;
  const uint64_t n =
      WalkRows(delta.head, end, &row, &done, [](uint64_t, uint64_t) {});
  if (n > 0) {
    // At most one chunk: the walked rows are disjoint and inside it.
    const uint64_t at =
        delta.head.data_offset +
        (region * delta.head.num_floats + cursor->pos) * sizeof(float);
    SUPA_RETURN_NOT_OK(
        ReadAt(delta.fd.get(), rows_.data(), n * sizeof(float), at, delta.path));
    cursor->crc = Crc32c(rows_.data(), n * sizeof(float), cursor->crc);
    if (copy) {
      const float* src = rows_.data();
      size_t copy_row = cursor->row;
      uint64_t copy_done = cursor->done;
      WalkRows(delta.head, end, &copy_row, &copy_done,
               [&](uint64_t offset, uint64_t len) {
                 std::memcpy(chunk_.data() + (offset - begin), src,
                             len * sizeof(float));
                 src += len;
               });
    }
  }
  cursor->row = row;
  cursor->done = done;
  cursor->pos += n;
  return Status::OK();
}

Result<ChainReader> OpenLinkChain(const std::string& dir,
                                  const Manifest& manifest, size_t link) {
  size_t base = link + 1;
  for (size_t i = link + 1; i-- > 0;) {
    if (manifest.links[i].kind == ManifestLink::Kind::kBase) {
      base = i;
      break;
    }
  }
  if (base == link + 1) {
    return Status::IOError("manifest link " + std::to_string(link) +
                           " has no base beneath it in " + dir);
  }
  std::vector<std::string> deltas;
  for (size_t i = base + 1; i <= link; ++i) {
    deltas.push_back(dir + "/" + manifest.links[i].file);
  }
  SUPA_ASSIGN_OR_RETURN(
      ChainReader chain,
      ChainReader::Open(dir + "/" + manifest.links[base].file, deltas));
  if (chain.meta().adam_step != manifest.links[link].adam_step) {
    return Status::IOError(
        "manifest link " + std::to_string(link) + " records adam step " +
        std::to_string(manifest.links[link].adam_step) +
        " but its checkpoint chain ends at step " +
        std::to_string(chain.meta().adam_step) + " in " + dir);
  }
  return chain;
}

Status VerifyChainFor(ChainReader& chain, const SupaModel& model) {
  // The layout check costs nothing, so it runs before the read.
  SUPA_RETURN_NOT_OK(ValidateMetaAgainstModel(chain.meta(), model));
  return chain.Stream(nullptr);
}

Status LoadChainInto(ChainReader& chain, SupaModel* model) {
  // Re-checked so that no chain can scatter outside the model's buffers.
  SUPA_RETURN_NOT_OK(ValidateMetaAgainstModel(chain.meta(), *model));
  const store::EmbeddingBank& bank = model->embeddings();
  const Status st = model->LoadState(
      chain.meta().adam_step, [&](float* params, float* m, float* v) {
        float* const dst[] = {params, m, v};
        return chain.Stream([&](StateRegion region, uint64_t offset,
                                const float* data, size_t n) {
          bank.ScatterLogicalRange(data, offset, n,
                                   dst[static_cast<size_t>(region)]);
          return Status::OK();
        });
      });
  if (!st.ok()) {
    return Status::IOError(
        "checkpoint chain failed its second read, so a file changed after "
        "it was verified; the model is partly written and must be "
        "discarded: " +
        st.ToString());
  }
  return Status::OK();
}

Status WriteChainAsBase(ChainReader& chain, const std::string& path) {
  SUPA_ASSIGN_OR_RETURN(BaseFileWriter writer,
                        BaseFileWriter::Create(path, chain.meta()));
  SUPA_RETURN_NOT_OK(chain.Stream(
      [&](StateRegion, uint64_t, const float* data, size_t n) {
        return writer.Append(data, n);
      }));
  return writer.Finish();
}

}  // namespace supa::dur
