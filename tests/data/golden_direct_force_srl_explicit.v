module pf_shiftreg_w16_d2(
  input clk,
  input rst,
  input en,
  input [15:0] d,
  output [15:0] q
);
  reg [15:0] stage [0:1];
  integer i;
  always @(posedge clk) begin
    if (rst) begin
      for (i = 0; i < 2; i = i + 1) stage[i] <= 16'd0;
    end else if (en) begin
      stage[0] <= d;
      for (i = 1; i < 2; i = i + 1) stage[i] <= stage[i - 1];
    end
  end
  assign q = stage[1];
endmodule

module pf_shiftreg_w4_d4(
  input clk,
  input rst,
  input en,
  input [3:0] d,
  output [3:0] q
);
  reg [3:0] stage [0:3];
  integer i;
  always @(posedge clk) begin
    if (rst) begin
      for (i = 0; i < 4; i = i + 1) stage[i] <= 4'd0;
    end else if (en) begin
      stage[0] <= d;
      for (i = 1; i < 4; i = i + 1) stage[i] <= stage[i - 1];
    end
  end
  assign q = stage[3];
endmodule

module run(
  input clk,
  input rst,
  input [7:0] x,
  input [7:0] y,
  input [3:0] e,
  output [15:0] z_out,
  output [3:0] e_out
);
  reg [15:0] mul__mulXY;
  reg [7:0] addA__sumXY;
  reg [7:0] addA__x;
  reg [7:0] addB__sum2XY;
  reg [15:0] merged_mul_mul__mulXY;
  wire [7:0] merged_mul_mul__sum2XY;
  wire [15:0] xor__z;
  wire [3:0] xor__e;
  wire [15:0] mul__mulXY__c;
  wire [7:0] addA__sumXY__c;
  wire [7:0] addB__sum2XY__c;
  wire [15:0] xor__z__c;
  assign mul__mulXY__c = x * y;
  always @(posedge clk) begin
    if (rst) mul__mulXY <= 16'd0;
    else mul__mulXY <= mul__mulXY__c;
  end
  assign addA__sumXY__c = x + y;
  always @(posedge clk) begin
    if (rst) addA__sumXY <= 8'd0;
    else addA__sumXY <= addA__sumXY__c;
  end
  always @(posedge clk) begin
    if (rst) addA__x <= 8'd0;
    else addA__x <= x;
  end
  assign addB__sum2XY__c = addA__sumXY + addA__x;
  always @(posedge clk) begin
    if (rst) addB__sum2XY <= 8'd0;
    else addB__sum2XY <= addB__sum2XY__c;
  end
  always @(posedge clk) begin
    if (rst) merged_mul_mul__mulXY <= 16'd0;
    else merged_mul_mul__mulXY <= mul__mulXY;
  end
  assign merged_mul_mul__sum2XY = addB__sum2XY;
  assign xor__z__c = merged_mul_mul__sum2XY ^ merged_mul_mul__mulXY;
  pf_shiftreg_w16_d2 u_xor__z(.clk(clk), .rst(rst), .en(1'b1), .d(xor__z__c), .q(xor__z));
  pf_shiftreg_w4_d4 u_xor__e(.clk(clk), .rst(rst), .en(1'b1), .d(e), .q(xor__e));
  assign z_out = xor__z;
  assign e_out = xor__e;
endmodule
