#ifndef ALT_SRC_TENSOR_KERNELS_H_
#define ALT_SRC_TENSOR_KERNELS_H_

#include <cmath>
#include <cstdint>

#include "src/tensor/tensor.h"

namespace alt {

/// Raw dense compute kernels shared by autograd forward and backward passes.
/// All kernels operate on pre-shaped tensors; shape validation happens at the
/// op layer. Accumulating variants (suffix `Acc`) add into the output, which
/// is what backward passes need for gradient accumulation.
///
/// The GEMM-family kernels are cache-blocked and register-tiled, and
/// parallelize over row panels (or the batch dimension) through
/// src/util/parallel_for.h. Reduction order per output element is fixed by
/// the blocking constants alone, so results are bit-identical for every
/// thread count (ALT_THREADS / alt::SetComputeThreads). The original scalar
/// kernels are preserved in kernels_naive.h as the parity/benchmark baseline.
///
/// SIMD dispatch (src/tensor/cpu_features.h): on AVX2+FMA hosts the micro
/// panels and the row primitives below run the AVX2 implementations from
/// kernels_avx2.cc unless ALT_SIMD=off forces the scalar path. The two
/// levels agree to rounding (different but fixed reduction orders), except
/// the polynomial activations and LstmCell, which agree bit for bit; within
/// one level results remain bit-identical across thread counts.

/// y[i] += alpha * x[i]. The shared axpy primitive behind
/// Tensor::AddInPlace / Tensor::Axpy, optimizer updates, and gradient
/// accumulation; threaded above a fixed size cutoff.
void VecAxpy(float alpha, const float* x, float* y, int64_t n);
/// y[i] *= alpha.
void VecScale(float alpha, float* y, int64_t n);

/// Sequential row primitives for the hot elementwise/softmax/layer-norm
/// loops in src/autograd/ops.cc. Unlike VecAxpy/VecScale these never spawn
/// parallel work — callers invoke them per row inside their own ParallelFor
/// chunks — but they do dispatch to the AVX2 backend.
/// y[i] = max(x[i], 0).
void VecRelu(const float* x, float* y, int64_t n);
/// y[i] *= alpha (sequential flavor of VecScale).
void RowScale(float alpha, float* y, int64_t n);
/// max_i x[i]; requires n >= 1. Exact at any SIMD level.
float RowMax(const float* x, int64_t n);
/// Double-precision sum; the SIMD level fixes the accumulation grouping.
double RowSumDouble(const float* x, int64_t n);
/// Two-pass population mean/variance in double precision.
void RowMeanVar(const float* x, int64_t n, double* mean, double* var);
/// Layer-norm inner loop: xhat[j] = (src[j] - mean) * istd;
/// dst[j] = xhat[j] * gamma[j] + beta[j].
void RowNormalizeAffine(const float* src, float mean, float istd,
                        const float* gamma, const float* beta, float* xhat,
                        float* dst, int64_t n);

/// Numerically stable logistic sigmoid of one value through libm exp: the
/// one scalar form behind predicted probabilities and the BCE loss.
inline float StableSigmoid(float z) {
  return z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                   : std::exp(z) / (1.0f + std::exp(z));
}

/// y[i] = sigmoid(x[i]) and y[i] = tanh(x[i]) from one range-reduced
/// polynomial exp instead of libm; within 2.5e-7 absolute of the exact
/// functions over all finite inputs, and NaN propagates. Unlike the GEMMs,
/// every SIMD level returns the same bits (see kernels_simd.h). Sequential,
/// like the row primitives above; x and y may alias.
void VecSigmoid(const float* x, float* y, int64_t n);
void VecTanh(const float* x, float* y, int64_t n);

/// Fused LSTM cell over `rows` rows of `hidden` units, gate order
/// (input, forget, cell, output). `gates` [rows, 4H] holds the
/// pre-activations on entry and the activations (sigma(i), sigma(f),
/// tanh(g), sigma(o)) on return; then c = f * c_prev + i * g,
/// tanh_c = tanh(c), h = o * tanh_c, all [rows, H]. `c_prev == nullptr`
/// means a zero cell state. The activations are VecSigmoid/VecTanh's, bit
/// for bit, and every SIMD level returns the same bits. Sequential.
void LstmCell(float* gates, const float* c_prev, float* c, float* tanh_c,
              float* h, int64_t rows, int64_t hidden);

/// Raw-pointer GEMMs over dense row-major blocks, for ops that address
/// sub-blocks of one buffer (ag::Lstm's per-timestep slices). Same blocking,
/// dispatch and thread-count determinism as the Tensor forms below.
/// C[m,n] (+)= A[m,k] * B[k,n]. Like MatMul, counted in
/// tensor/gemm/calls_total and timed in tensor/gemm/time_ms/<level>.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool accumulate);
/// C[m,n] += A[k,m]^T * B[k,n].
void GemmTransAAcc(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n);
/// C[m,n] += A[m,k] * B[n,k]^T.
void GemmTransBAcc(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n);

/// C = A[m,k] * B[k,n]. Overwrites C.
void MatMul(const Tensor& a, const Tensor& b, Tensor* c);
/// C += A[m,k] * B[k,n].
void MatMulAcc(const Tensor& a, const Tensor& b, Tensor* c);
/// C += A[k,m]^T * B[k,n]  (i.e. C[m,n] += sum_k A[k,m] B[k,n]).
void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* c);
/// C += A[m,k] * B[n,k]^T.
void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* c);

/// Batched matrix product over the leading dimension:
/// C[b] (+)= op(A[b]) * op(B[b]) with optional transposes.
/// A: [B, m, k] (or [B, k, m] if trans_a), B analogous, C: [B, m, n].
void BatchedMatMul(const Tensor& a, bool trans_a, const Tensor& b,
                   bool trans_b, Tensor* c, bool accumulate);

/// 1-D convolution with SAME padding and stride 1 over layout [B, T, Cin].
/// weight: [Cout, K, Cin], bias: [Cout] (may be null), dilation >= 1.
/// out: [B, T, Cout]. Overwrites out.
void Conv1D(const Tensor& input, const Tensor& weight, const Tensor* bias,
            int64_t dilation, Tensor* out);
/// Backward of Conv1D: accumulates into grad_input / grad_weight / grad_bias
/// (any may be null to skip).
void Conv1DBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_out, int64_t dilation,
                    Tensor* grad_input, Tensor* grad_weight,
                    Tensor* grad_bias);

/// 1-D average pooling, kernel `k`, stride 1, SAME padding, layout [B, T, C].
/// The average divides by the number of valid (in-bounds) taps.
void AvgPool1D(const Tensor& input, int64_t k, Tensor* out);
void AvgPool1DBackward(const Tensor& grad_out, int64_t k, Tensor* grad_input);

/// 1-D max pooling; `argmax` (same shape as out) records the winning input
/// time index per output element for the backward pass.
void MaxPool1D(const Tensor& input, int64_t k, Tensor* out,
               std::vector<int64_t>* argmax);
void MaxPool1DBackward(const Tensor& grad_out,
                       const std::vector<int64_t>& argmax, Tensor* grad_input);

}  // namespace alt

#endif  // ALT_SRC_TENSOR_KERNELS_H_
