// Validates a Chrome trace_event JSON file produced by obs::TraceExporter
// (tools/check_trace.sh runs it over the bench --trace_out artifacts).
//
// Checks, exiting nonzero on the first violation:
//   1. the file is well-formed JSON with a top-level "traceEvents" array;
//   2. every event has name/ph/pid/tid; ph is one of M (metadata),
//      X (complete, with ts and dur >= 0) or i (instant, with ts);
//   3. timestamps are monotone non-decreasing within each (pid, tid) lane
//      (the exporter emits events in canonical time order per run, and
//      lanes never span runs);
//   4. kernel-lane tids never exceed the simulator's concurrency cap of
//      32 resident kernels per GPU (TimeModel::max_concurrent_kernels),
//      i.e. cat=="kernel" implies 1 <= tid <= 32;
//   5. io-queue lane events (cat=="io" "queued" spans; the exporter
//      emits none now that storage reads do not queue) are X events
//      confined to the io lanes, i.e. tid >= 1000;
//   6. serial-resource lanes never overlap: X spans on a copy-engine lane
//      (cat=="copy") or a storage-device lane (cat=="storage") must not
//      start before the previous span on the same (pid, tid) lane ended.
//      Io-queue "queued" spans (cat=="io") are exempt -- queueing
//      overlaps service by design;
//   7. event ordering: a kernel span (cat=="kernel" or cat=="cpu") that
//      names a page in args must not start before the latest same-pid
//      copy span of that page has ended (a kernel must never read a page
//      whose transfer is still in flight);
//   8. fine-grained direct transfers (name=="h2d-direct", the
//      transfer.mode=direct/auto) are well-placed copy ops: X
//      spans on a copy lane (cat=="copy") carrying page and bytes args,
//      starting only after the page's latest storage fetch in the same
//      run group delivered it to the host staging buffer (runs are
//      grouped by pid_base, a multiple of 100 by the benches'
//      convention). Rules 6/7 then cover the rest of the contract: the
//      serial copy engine and the dependent kernel's ordering.
//   9. compaction-lane ordering: a storage "write" span that names a page
//      in args is a gts::ingest compaction installing a rebuilt page
//      image (delta-record writes carry no page arg). It must be an
//      X span on a storage lane (cat=="storage"), sit on the same
//      (pid, tid) lane as that page's "fetch" spans within the run group
//      (a page lives on exactly one storage device, so its reads and its
//      rewrite serialize on one device lane), and must not start before
//      the page's latest fetch in the group ended (the engine installs
//      only at safe points, after in-flight reads of the old image have
//      drained). A page never fetched in the group has nothing to order
//      against.
//  10. sync-check metadata: a trace whose "sync.check" metadata record
//      says "on" was produced by a -DGTS_SYNC_CHECK=ON binary, which
//      also stamps "sync.lock_order_violations" with the lock registry's
//      cumulative count. A nonzero count means the run held locks out of
//      the declared order (a potential deadlock) and the trace is
//      rejected. Traces without the record (knob-OFF builds, which emit
//      no sync metadata at all) are exempt.
//
// Rules 6-9 compare timestamps the exporter rounded to %.6f us, so they
// allow a slack of 1e-5 us for two roundings.
//
// Usage: trace_lint FILE.json
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ------------------------------------------------ minimal JSON parser

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) return false;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing content");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word, size_t len) {
    if (text_.compare(pos_, len, word) != 0) return Fail("bad literal");
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->str);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return Literal("true", 4);
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return Literal("false", 5);
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return Literal("null", 4);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return Fail("expected object key");
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            pos_ += 4;     // lint only needs well-formedness, not the
            *out += '?';   // decoded code point
            break;
          }
          default:
            return Fail("bad escape");
        }
        continue;
      }
      *out += c;
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("bad number");
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

// ------------------------------------------------------- trace checks

/// CUDA's resident-kernel limit the simulator models
/// (gts::gpu::TimeModel::max_concurrent_kernels); kernel lanes are
/// tid 1..cap within a GPU process.
constexpr int kMaxKernelLanes = 32;

/// First io-queue lane tid within a storage process (rule 5).
constexpr int kIoQueueLaneBase = 1000;

/// Timestamp slack for rules 6/7: the exporter prints ts/dur with %.6f
/// (microseconds), so two independently rounded endpoints may disagree by
/// up to 2 * 0.5e-6 us.
constexpr double kRoundingSlackUs = 1e-5;

int Violation(size_t index, const std::string& message) {
  std::fprintf(stderr, "trace_lint: event %zu: %s\n", index, message.c_str());
  return 1;
}

bool GetNumber(const JsonValue& event, const char* key, double* out) {
  const JsonValue* value = event.Find(key);
  if (value == nullptr || value->kind != JsonValue::Kind::kNumber) {
    return false;
  }
  *out = value->number;
  return true;
}

int LintTrace(const JsonValue& root) {
  if (root.kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "trace_lint: top level is not an object\n");
    return 1;
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "trace_lint: missing traceEvents array\n");
    return 1;
  }

  std::map<std::pair<int, int>, double> last_ts;  // (pid, tid) -> latest ts
  // Rule 6: (pid, tid) -> end of the previous span on a serial lane.
  std::map<std::pair<int, int>, double> serial_end;
  // Rule 7: (pid, page) -> end of the latest copy span of that page.
  std::map<std::pair<int, int>, double> copy_end;
  // Rule 8: (run group, page) -> end of the latest storage fetch span.
  std::map<std::pair<int, int>, double> fetch_end;
  // Rule 9: (run group, page) -> (pid, tid) lane of the latest fetch.
  std::map<std::pair<int, int>, std::pair<int, int>> fetch_lane;
  size_t data_events = 0;
  // Rule 10: sync-check metadata harvested from the 'M' records.
  bool sync_check_on = false;
  double sync_violations = 0.0;
  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& event = events->array[i];
    if (event.kind != JsonValue::Kind::kObject) {
      return Violation(i, "event is not an object");
    }
    const JsonValue* name = event.Find("name");
    const JsonValue* ph = event.Find("ph");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        ph == nullptr || ph->kind != JsonValue::Kind::kString ||
        ph->str.size() != 1) {
      return Violation(i, "missing name/ph");
    }
    double pid = 0.0;
    double tid = 0.0;
    if (!GetNumber(event, "pid", &pid)) return Violation(i, "missing pid");
    const char phase = ph->str[0];
    if (phase == 'M') {  // metadata: process/thread names, run key/values
      const JsonValue* margs = event.Find("args");
      const JsonValue* value =
          margs != nullptr && margs->kind == JsonValue::Kind::kObject
              ? margs->Find("value")
              : nullptr;
      if (value != nullptr && value->kind == JsonValue::Kind::kString) {
        if (name->str == "sync.check") {
          sync_check_on = value->str == "on";
        } else if (name->str == "sync.lock_order_violations") {
          sync_violations = std::strtod(value->str.c_str(), nullptr);
        }
      }
      continue;
    }
    if (!GetNumber(event, "tid", &tid)) return Violation(i, "missing tid");
    if (phase != 'X' && phase != 'i') {
      return Violation(i, std::string("unexpected phase '") + phase + "'");
    }

    double ts = 0.0;
    if (!GetNumber(event, "ts", &ts) || ts < 0.0) {
      return Violation(i, "missing or negative ts");
    }
    double dur = 0.0;
    if (phase == 'X') {
      if (!GetNumber(event, "dur", &dur) || dur < 0.0) {
        return Violation(i, "X event missing or negative dur");
      }
    }

    const auto lane = std::make_pair(static_cast<int>(pid),
                                     static_cast<int>(tid));
    auto [it, inserted] = last_ts.emplace(lane, ts);
    if (!inserted) {
      if (ts < it->second) {
        return Violation(
            i, "timestamps not monotone on lane pid=" +
                   std::to_string(lane.first) +
                   " tid=" + std::to_string(lane.second));
      }
      it->second = ts;
    }

    const JsonValue* cat = event.Find("cat");
    if (cat != nullptr && cat->kind == JsonValue::Kind::kString &&
        cat->str == "kernel") {
      const int lane_tid = static_cast<int>(tid);
      if (lane_tid < 1 || lane_tid > kMaxKernelLanes) {
        return Violation(i, "kernel lane tid " + std::to_string(lane_tid) +
                                " outside [1, " +
                                std::to_string(kMaxKernelLanes) + "]");
      }
    }
    if (cat != nullptr && cat->kind == JsonValue::Kind::kString &&
        cat->str == "io") {
      if (phase != 'X') {
        return Violation(i, "io event must be an X span");
      }
      if (static_cast<int>(tid) < kIoQueueLaneBase) {
        return Violation(i, "io event tid " +
                                std::to_string(static_cast<int>(tid)) +
                                " below the io-queue lane base " +
                                std::to_string(kIoQueueLaneBase));
      }
    }

    const std::string category =
        cat != nullptr && cat->kind == JsonValue::Kind::kString ? cat->str
                                                                : "";
    // Rule 6: copy engines and storage devices are serial resources; two
    // X spans on the same lane must not overlap. Io-queue spans (handled
    // above) are exempt: queue *wait* overlaps device *service* by design.
    if (phase == 'X' && (category == "copy" || category == "storage")) {
      auto [it, inserted] = serial_end.emplace(lane, ts + dur);
      if (!inserted) {
        if (ts + kRoundingSlackUs < it->second) {
          return Violation(
              i, category + " lane pid=" + std::to_string(lane.first) +
                     " tid=" + std::to_string(lane.second) +
                     " overlaps previous span (starts " + std::to_string(ts) +
                     ", previous ends " + std::to_string(it->second) + ")");
        }
        it->second = ts + dur;
      }
    }

    // Rule 7: a kernel must never read a page whose transfer is still in
    // flight. Copy spans carry their page in args; a later kernel span
    // naming the same page within the same process (GPU) must start at or
    // after the copy's end. Kernels with no recorded copy (cache hits,
    // CPU co-processing) have nothing to check.
    const JsonValue* args = event.Find("args");
    const JsonValue* page =
        args != nullptr && args->kind == JsonValue::Kind::kObject
            ? args->Find("page")
            : nullptr;
    if (phase == 'X' && page != nullptr &&
        page->kind == JsonValue::Kind::kNumber) {
      const auto page_key = std::make_pair(static_cast<int>(pid),
                                           static_cast<int>(page->number));
      if (category == "copy") {
        double& end = copy_end[page_key];
        if (ts + dur > end) end = ts + dur;
      } else if (category == "kernel" || category == "cpu") {
        auto it = copy_end.find(page_key);
        if (it != copy_end.end() && ts + kRoundingSlackUs < it->second) {
          return Violation(
              i, "kernel reads page " + std::to_string(page_key.second) +
                     " at " + std::to_string(ts) +
                     " before its transfer completes at " +
                     std::to_string(it->second));
        }
      }
    }

    // Rule 8: h2d-direct spans (transfer.mode=direct/auto's
    // fine-grained fetches) must look like every other copy-engine op --
    // an X span on a copy lane naming its page and bytes -- and must not
    // start before the page's latest storage fetch in the same run group
    // ended (direct transfers fetch adjacency lists out of host staging
    // memory, so staging strictly precedes the PCI-E leg). A page with
    // no fetch span in this run was already host-resident (MMBuf hit
    // from an earlier run in the same trace): nothing to order against.
    if (phase == 'X' && name->str == "fetch" && page != nullptr &&
        page->kind == JsonValue::Kind::kNumber) {
      const auto group_key = std::make_pair(
          static_cast<int>(pid) / 100, static_cast<int>(page->number));
      double& end = fetch_end[group_key];
      if (ts + dur > end) {
        end = ts + dur;
        fetch_lane[group_key] = lane;
      }
    }
    // Rule 9: a paged storage "write" is a compaction install; it must
    // share the page's storage-device lane and follow the page's reads.
    if (name->str == "write" && page != nullptr &&
        page->kind == JsonValue::Kind::kNumber) {
      if (phase != 'X' || category != "storage") {
        return Violation(
            i, "paged write (compaction install) must be an X span on a "
               "storage lane");
      }
      const auto group_key = std::make_pair(
          static_cast<int>(pid) / 100, static_cast<int>(page->number));
      auto lane_it = fetch_lane.find(group_key);
      if (lane_it != fetch_lane.end()) {
        if (lane_it->second != lane) {
          return Violation(
              i, "compaction write of page " +
                     std::to_string(group_key.second) + " on lane pid=" +
                     std::to_string(lane.first) + " tid=" +
                     std::to_string(lane.second) +
                     " but the page's fetches run on pid=" +
                     std::to_string(lane_it->second.first) + " tid=" +
                     std::to_string(lane_it->second.second));
        }
        auto end_it = fetch_end.find(group_key);
        if (end_it != fetch_end.end() &&
            ts + kRoundingSlackUs < end_it->second) {
          return Violation(
              i, "compaction write of page " +
                     std::to_string(group_key.second) + " starts at " +
                     std::to_string(ts) + " before the page's fetch ends at " +
                     std::to_string(end_it->second));
        }
      }
    }
    if (name->str == "h2d-direct") {
      if (phase != 'X' || category != "copy") {
        return Violation(i, "h2d-direct must be an X span on a copy lane");
      }
      const JsonValue* bytes =
          args != nullptr && args->kind == JsonValue::Kind::kObject
              ? args->Find("bytes")
              : nullptr;
      if (page == nullptr || page->kind != JsonValue::Kind::kNumber ||
          bytes == nullptr || bytes->kind != JsonValue::Kind::kNumber ||
          bytes->number <= 0.0) {
        return Violation(i, "h2d-direct span missing page/bytes args");
      }
      const auto group_key = std::make_pair(
          static_cast<int>(pid) / 100, static_cast<int>(page->number));
      auto it = fetch_end.find(group_key);
      if (it != fetch_end.end() && ts + kRoundingSlackUs < it->second) {
        return Violation(
            i, "h2d-direct of page " + std::to_string(group_key.second) +
                   " starts at " + std::to_string(ts) +
                   " before its staging fetch ends at " +
                   std::to_string(it->second));
      }
    }
    ++data_events;
  }

  if (data_events == 0) {
    std::fprintf(stderr, "trace_lint: trace has no data events\n");
    return 1;
  }
  // Rule 10: a sync-check-ON trace must report zero unresolved
  // lock-order violations in its metadata.
  if (sync_check_on && sync_violations != 0.0) {
    std::fprintf(stderr,
                 "trace_lint: sync.check=on trace reports %.0f unresolved "
                 "lock-order violation(s)\n",
                 sync_violations);
    return 1;
  }
  std::printf("trace_lint: OK (%zu data events, %zu lanes)\n", data_events,
              last_ts.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s FILE.json\n", argv[0]);
    return 2;
  }
  std::ifstream in(argv[1], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trace_lint: cannot open %s\n", argv[1]);
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  JsonValue root;
  JsonParser parser(text);
  if (!parser.Parse(&root)) {
    std::fprintf(stderr, "trace_lint: %s: invalid JSON: %s\n", argv[1],
                 parser.error().c_str());
    return 1;
  }
  return LintTrace(root);
}
