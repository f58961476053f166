// A congestion controller built the way TcpSocket builds its own: by
// tcp::make_congestion_control_in into inline storage, with the virtual
// destructor run when the box goes out of scope.
#pragma once

#include <cstddef>

#include "tcp/congestion_control.hpp"

namespace qoesim::testutil {

class CcBox {
 public:
  CcBox(tcp::CcKind kind, double mss_bytes, double initial_cwnd_bytes)
      : cc_(tcp::make_congestion_control_in(storage_, kind, mss_bytes,
                                            initial_cwnd_bytes)) {}
  ~CcBox() { cc_->~CongestionControl(); }
  CcBox(const CcBox&) = delete;
  CcBox& operator=(const CcBox&) = delete;

  tcp::CongestionControl* operator->() const { return cc_; }

 private:
  alignas(std::max_align_t) unsigned char storage_[tcp::kCcBoxBytes];
  tcp::CongestionControl* cc_;
};

}  // namespace qoesim::testutil
