#include "service/cache.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/line_codec.hpp"

namespace cref::service {

std::string serialize_entry(const CacheEntry& entry) {
  util::LineWriter w;
  w.line("cref-cache").num(2);
  w.line("relation").word(to_string(entry.relation));
  w.line("holds").num(entry.holds ? 1 : 0);
  // Raw to end of line: a reason holding '\n' would parse as a miss.
  w.line("reason").word(entry.reason);
  w.line("witness").list(entry.witness);
  w.line("cert").num(entry.certificate ? 1 : 0);
  if (entry.certificate) {
    const JobCertificate& c = *entry.certificate;
    w.line("positive").num(c.positive ? 1 : 0);
    w.line("rho").list(c.rho);
    w.line("sigma").list(c.sigma);
    w.line("region").bits(c.c_region);
    w.line("compressed").num(c.compressed.size());
    for (const JobCertificate::APath& p : c.compressed)
      w.line("cpath").num(p.s).num(p.t).list(p.path);
    w.line("stab-reach").bits(c.stab.a_reachable);
    w.line("stab-parent").list(c.stab.a_parent);
    w.line("stab-depth").list(c.stab.a_depth);
    w.line("stab-rho").list(c.stab.rho);
    w.line("stab-sigma").list(c.stab.sigma);
    w.line("kind").word(to_string(c.kind));
    w.line("init-path").list(c.init_path);
    w.line("a-closed").bits(c.a_closed);
    // The static refinement certificate's own text, embedded verbatim.
    w.block("refine", c.refine);
  }
  w.line("end");
  return w.take();
}

std::optional<CacheEntry> parse_entry(const std::string& text) {
  util::LineReader r(text);
  CacheEntry e;
  int version = 0;
  bool has_cert = false;
  std::string relation, kind;
  if (!r.line("cref-cache").num(version).ok() || version != 2) return std::nullopt;
  r.line("relation").word(relation);
  r.line("holds").num(e.holds);
  r.line("reason").rest(e.reason);
  r.line("witness").list(e.witness);
  r.line("cert").num(has_cert);
  if (has_cert) {
    JobCertificate& c = e.certificate.emplace();
    std::size_t n = 0;
    r.line("positive").num(c.positive);
    r.line("rho").list(c.rho);
    r.line("sigma").list(c.sigma);
    r.line("region").bits(c.c_region);
    r.line("compressed").num(n);
    for (; n > 0 && r.ok(); --n) {
      JobCertificate::APath& p = c.compressed.emplace_back();
      r.line("cpath").num(p.s).num(p.t).list(p.path);
    }
    r.line("stab-reach").bits(c.stab.a_reachable);
    r.line("stab-parent").list(c.stab.a_parent);
    r.line("stab-depth").list(c.stab.a_depth);
    r.line("stab-rho").list(c.stab.rho);
    r.line("stab-sigma").list(c.stab.sigma);
    r.line("kind").word(kind);
    r.line("init-path").list(c.init_path);
    r.line("a-closed").bits(c.a_closed);
    r.block("refine", c.refine);
  }
  if (!r.line("end").finish()) return std::nullopt;
  try {
    e.relation = relation_from_string(relation);
    if (has_cert) e.certificate->kind = violation_kind_from_string(kind);
  } catch (const std::exception&) {
    return std::nullopt;  // an unknown name
  }
  return e;
}

VerdictCache::VerdictCache(std::size_t capacity, std::string dir)
    : capacity_(capacity ? capacity : 1), dir_(std::move(dir)) {}

std::optional<CacheEntry> VerdictCache::lookup(const Digest& key) {
  const std::string hex = key.hex();
  if (auto it = map_.find(hex); it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    return it->second->entry;
  }
  if (dir_.empty()) return std::nullopt;
  auto from_disk = disk_lookup(hex);
  if (!from_disk) return std::nullopt;
  store(key, *from_disk);  // promote into memory (re-writing the file is harmless)
  return from_disk;
}

void VerdictCache::store(const Digest& key, const CacheEntry& entry) {
  const std::string hex = key.hex();
  if (auto it = map_.find(hex); it != map_.end()) {
    it->second->entry = entry;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Node{hex, entry});
    map_[hex] = lru_.begin();
    if (map_.size() > capacity_) {
      map_.erase(lru_.back().key_hex);
      lru_.pop_back();
    }
  }
  if (!dir_.empty()) disk_store(hex, entry);
}

std::optional<CacheEntry> VerdictCache::disk_lookup(const std::string& key_hex) const {
  std::ifstream in(std::filesystem::path(dir_) / (key_hex + ".entry"), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return parse_entry(text.str());
}

void VerdictCache::disk_store(const std::string& key_hex, const CacheEntry& entry) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return;  // disk store is best-effort; memory tier still answers
  std::ofstream out(std::filesystem::path(dir_) / (key_hex + ".entry"), std::ios::binary);
  if (!out) return;
  out << serialize_entry(entry);
}

}  // namespace cref::service
