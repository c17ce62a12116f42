#include "h2priv/tcp/reassembly.hpp"

#include <algorithm>
#include <cstring>

namespace h2priv::tcp {

void Reassembly::hold(std::uint64_t begin, util::BytesView data) {
  const std::uint64_t end = begin + data.size();
  // Held ranges that overlap or touch [begin, end) are [first, last).
  const auto first = std::lower_bound(
      held_.begin(), held_.end(), begin,
      [](const Range& r, std::uint64_t at) { return r.end < at; });
  auto last = first;
  std::uint64_t at = begin;
  for (; last != held_.end() && last->begin <= end; ++last) {
    if (last->begin > at) {
      store(at, data.subspan(static_cast<std::size_t>(at - begin),
                             static_cast<std::size_t>(last->begin - at)));
    }
    at = std::max(at, last->end);
  }
  if (at < end) store(at, data.subspan(static_cast<std::size_t>(at - begin)));
  if (first == last) {
    held_.insert(first, Range{begin, end});
    return;
  }
  first->begin = std::min(first->begin, begin);
  first->end = std::max(std::prev(last)->end, end);
  held_.erase(std::next(first), last);
}

void Reassembly::store(std::uint64_t at, util::BytesView bytes) {
  buffered_ += bytes.size();
  while (!bytes.empty()) {
    const auto off = static_cast<std::size_t>(at % kPageBytes);
    const std::size_t n = std::min(bytes.size(), kPageBytes - off);
    std::memcpy(page_for(at / kPageBytes) + off, bytes.data(), n);
    bytes = bytes.subspan(n);
    at += n;
  }
}

std::vector<Reassembly::Page>::const_iterator Reassembly::page_at_or_after(
    std::uint64_t index) const noexcept {
  return std::lower_bound(pages_.begin(), pages_.end(), index,
                          [](const Page& p, std::uint64_t i) { return p.index < i; });
}

std::uint8_t* Reassembly::page_for(std::uint64_t index) {
  auto it = page_at_or_after(index);
  if (it == pages_.end() || it->index != index) {
    decltype(Page::chunk) chunk(util::default_pool().acquire(kPageBytes));
    it = pages_.insert(it, Page{index, std::move(chunk)});
  }
  return it->chunk->payload();
}

Reassembly::Range Reassembly::take_front() noexcept {
  const Range run = held_.front();
  held_.erase(held_.begin());
  buffered_ -= static_cast<std::size_t>(run.end - run.begin);
  rcv_nxt_ = run.end;
  return run;
}

util::BytesView Reassembly::page_slice(std::uint64_t at,
                                       std::uint64_t end) const noexcept {
  const auto off = static_cast<std::size_t>(at % kPageBytes);
  const auto n =
      static_cast<std::size_t>(std::min<std::uint64_t>(end - at, kPageBytes - off));
  return {page_at_or_after(at / kPageBytes)->chunk->payload() + off, n};
}

void Reassembly::release_drained_pages() noexcept {
  // Every page below the next held byte's page holds nothing undelivered.
  if (held_.empty()) {
    pages_.clear();
    return;
  }
  pages_.erase(pages_.begin(), page_at_or_after(held_.front().begin / kPageBytes));
}

}  // namespace h2priv::tcp
